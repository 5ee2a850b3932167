// Package cpu provides the trace-driven multicore timing model: private
// L1 data caches per core, a shared last-level cache with a pluggable
// policy, and a fixed-latency memory behind it. Cores are in-order with
// one-cycle non-memory instructions; memory instructions stall for the
// latency of whichever level services them. The engine interleaves cores
// in global cycle order, so shared-cache interference is deterministic.
//
// Known simplification (documented in DESIGN.md): no MLP or bandwidth
// model — each miss pays the full latency. This compresses absolute IPC
// but preserves the relative orderings that the NUcache evaluation is
// about, since all policies are measured under the same model.
package cpu

import (
	"fmt"
	"math"

	"nucache/internal/cache"
	"nucache/internal/memory"
	"nucache/internal/trace"
)

// Config describes the simulated machine.
type Config struct {
	// Cores is the number of cores (each gets a private L1).
	Cores int
	// L1 is the per-core L1 geometry (Name/Cores fields are overridden).
	L1 cache.Config
	// L2 is an optional private per-core L2 (SizeBytes 0 disables it).
	L2 cache.Config
	// LLC is the shared last-level cache geometry.
	LLC cache.Config
	// L1Latency is the cycles charged for an L1 hit.
	L1Latency uint64
	// L2Latency is the additional cycles for a private-L2 hit.
	L2Latency uint64
	// LLCLatency is the additional cycles for an LLC hit.
	LLCLatency uint64
	// MemLatency is the additional cycles for an LLC miss (flat model).
	MemLatency uint64
	// DRAM, when non-nil, replaces the flat MemLatency with a bank/
	// row-buffer main-memory model (see internal/memory).
	DRAM *memory.Config
	// InstrBudget freezes a core's statistics once it has retired this
	// many instructions (the core keeps running to preserve contention
	// until every core is frozen). Zero means run streams to exhaustion.
	InstrBudget uint64
	// WarmupInstr, when positive, excludes each core's first N retired
	// instructions from its recorded statistics (caches stay warm; only
	// the counters are re-based). Standard simulation methodology for
	// hiding cold-start effects.
	WarmupInstr uint64
	// PrefetchDegree, when positive, models a per-core next-line
	// prefetcher: every demand L1 miss also brings the next N lines into
	// the LLC (tagged with the triggering PC, so PC-indexed policies see
	// them the way the hardware proposal would). Prefetches are free in
	// time; with prefetching enabled the per-core LLC statistics include
	// prefetch traffic, as real hardware counters do.
	PrefetchDegree int
}

// MaxPrefetch bounds the PrefetchDegree a request may ask for: every
// demand miss issues that many LLC accesses.
const MaxPrefetch = 64

// lineShift is log2 of the model's one line size, 64 bytes, at every
// level: private victims, LLC writebacks, DRAM rows and tape words carry
// line addresses, an address shifted right by lineShift.
const lineShift = 6

// checkLine panics, naming the level and its size, on a cache whose
// line is not 1<<lineShift bytes: the hierarchy would silently misplace
// every writeback and DRAM access.
func checkLine(level string, c cache.Config) {
	if c.LineBytes != 1<<lineShift {
		panic(fmt.Sprintf("cpu: %s line size %d bytes, the model supports only %d", level, c.LineBytes, 1<<lineShift))
	}
}

// DefaultConfig returns the reconstruction's machine for the given core
// count: 32 KB 8-way L1s and a 16-way shared LLC sized 1 MB for 1-2
// cores, 2 MB for 3-4, 4 MB for more (see DESIGN.md).
func DefaultConfig(cores int) Config {
	llcSize := 1 << 20
	switch {
	case cores > 4:
		llcSize = 4 << 20
	case cores > 2:
		llcSize = 2 << 20
	}
	return Config{
		Cores:       cores,
		L1:          cache.Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		LLC:         cache.Config{SizeBytes: llcSize, Ways: 16, LineBytes: 64},
		L1Latency:   1,
		LLCLatency:  12,
		MemLatency:  200,
		InstrBudget: 0,
	}
}

// CoreResult is one core's frozen statistics.
type CoreResult struct {
	// Core is the core index.
	Core int
	// Instructions retired at freeze (memory + non-memory).
	Instructions uint64
	// Cycles elapsed at freeze.
	Cycles uint64
	// MemAccesses issued at freeze.
	MemAccesses uint64
	// L1Hits and L1Misses at freeze.
	L1Hits, L1Misses uint64
	// LLCAccesses, LLCHits and LLCMisses attributed to this core at
	// freeze (demand accesses; writebacks excluded).
	LLCAccesses, LLCHits, LLCMisses uint64
}

// IPC returns instructions per cycle (0 if no cycles elapsed).
func (r CoreResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// LLCMPKI returns LLC misses per thousand instructions.
func (r CoreResult) LLCMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.LLCMisses) / float64(r.Instructions)
}

// L1MissRate returns the L1 miss ratio.
func (r CoreResult) L1MissRate() float64 {
	t := r.L1Hits + r.L1Misses
	if t == 0 {
		return 0
	}
	return float64(r.L1Misses) / float64(t)
}

const (
	// coreAddrShift separates per-core address spaces (multiprogrammed
	// workloads share nothing).
	coreAddrShift = 40
	// corePCShift tags PCs with the core index so PC-indexed mechanisms
	// never alias across programs.
	corePCShift = 48
)

// tag returns core's LLC-side address and PC. Only the LLC and the
// memory model see tagged values: the private levels run on untagged
// ones, which is exact, because adding core<<coreAddrShift is
// injective mod 2^64 and changes no set-index or line-offset bit, and
// PCs are only payload below the LLC.
func tag(core int, addr, pc uint64) (uint64, uint64) {
	return addr + uint64(core)<<coreAddrShift, pc | uint64(core)<<corePCShift
}

// UntagPC splits a core-tagged PC, as the LLC and its policies see it,
// into the issuing core and the program's own PC: the bits from
// corePCShift up, and the bits below.
func UntagPC(pc uint64) (core, raw uint64) {
	return pc >> corePCShift, pc & (1<<corePCShift - 1)
}

// since re-bases cumulative counters r past the earlier snapshot b (the
// warm-up baseline; zero when no warm-up was configured).
func (r CoreResult) since(b CoreResult) CoreResult {
	return CoreResult{
		Core:         r.Core,
		Instructions: r.Instructions - b.Instructions,
		Cycles:       r.Cycles - b.Cycles,
		MemAccesses:  r.MemAccesses - b.MemAccesses,
		L1Hits:       r.L1Hits - b.L1Hits,
		L1Misses:     r.L1Misses - b.L1Misses,
		LLCAccesses:  r.LLCAccesses - b.LLCAccesses,
		LLCHits:      r.LLCHits - b.LLCHits,
		LLCMisses:    r.LLCMisses - b.LLCMisses,
	}
}

// llcSide is the shared half of the machine: the LLC, the memory model
// behind it and the traffic counters. Every private-hierarchy miss goes
// through serve, so the LLC access order is written down once.
type llcSide struct {
	// cfg is the whole machine config; System and ReplaySystem read
	// their own fields of it through the embedding.
	cfg  Config
	llc  *cache.Cache
	dram *memory.DRAM // nil under the flat-latency model

	// req is the scratch request reused for every LLC access: the cache
	// and policies read it only during the Access call (never retain the
	// pointer), and reusing it keeps the per-access path allocation-free
	// — a fresh composite literal escapes through the policy interface
	// and costs one heap object per access.
	req cache.Request

	// Writebacks counts dirty private victims drained into the LLC.
	Writebacks uint64
	// PrefetchIssued counts next-line prefetches sent to the LLC.
	PrefetchIssued uint64
}

// DRAM exposes the memory model when enabled (nil otherwise).
func (s *llcSide) DRAM() *memory.DRAM { return s.dram }

// LLC exposes the shared cache (policy inspection, stats).
func (s *llcSide) LLC() *cache.Cache { return s.llc }

// Prefetches returns the next-line prefetch count (Machine interface).
func (s *llcSide) Prefetches() uint64 { return s.PrefetchIssued }

// serve services one private-hierarchy miss of core at the LLC and in
// main memory, in this order: the demand access, the memory traffic it
// causes, its next-line prefetches, then the posted writeback of the
// private victim (when wb). Addresses and PCs arrive untagged; serve
// tags them. It returns the cycles the core stalls for; prefetches and
// writebacks are free in time.
func (s *llcSide) serve(core int, addr, pc uint64, kind trace.Kind, wb bool, wbAddr, wbPC uint64) uint64 {
	addr, pc = tag(core, addr, pc)
	s.req = cache.Request{Addr: addr, PC: pc, Core: core, Kind: kind}
	res := s.llc.Access(&s.req)
	svc := s.cfg.LLCLatency
	if !res.Hit {
		if s.dram != nil {
			svc += s.dram.Access(addr)
		} else {
			svc += s.cfg.MemLatency
		}
	}
	// An evicted dirty LLC line is written to memory (posted; row state
	// only matters under the DRAM model).
	if res.EvictedDirty() && s.dram != nil {
		s.dram.Touch(res.EvictedTag << lineShift)
	}
	for d := 1; d <= s.cfg.PrefetchDegree; d++ {
		s.PrefetchIssued++
		s.req = cache.Request{
			Addr: addr + uint64(d)*uint64(s.cfg.LLC.LineBytes),
			PC:   pc, Core: core, Kind: trace.Load,
		}
		s.llc.Access(&s.req)
	}
	if wb {
		s.Writebacks++
		wbAddr, wbPC = tag(core, wbAddr, wbPC)
		s.req = cache.Request{Addr: wbAddr, PC: wbPC, Core: core, Kind: trace.Store}
		s.llc.Access(&s.req)
	}
	return svc
}

// engine is what System and ReplaySystem share: the LLC side, the
// schedule of steps and the measurement windows. Both engines close a
// window the same way, by applying a trace.Crossing — the direct
// engine builds its crossings on the spot, replay reads them off the
// tapes — so a core's result is computed in one place.
type engine struct {
	llcSide

	// sched holds each core's next step time; a core whose stream ran
	// dry is unscheduled.
	sched schedule

	// closed counts cores whose measurement window has closed — the
	// stop condition, kept as a counter so the per-step loop does not
	// rescan every core.
	closed int
}

// init builds the LLC side and sizes the schedule. The engine must not
// move afterwards (the schedule may point into itself).
func (e *engine) init(cfg Config, llcPolicy cache.Policy) {
	if cfg.Cores <= 0 {
		panic("cpu: non-positive core count")
	}
	checkLine("LLC", cfg.LLC)
	llcCfg := cfg.LLC
	if llcCfg.Name == "" {
		llcCfg.Name = "LLC"
	}
	llcCfg.Cores = cfg.Cores
	e.llcSide = llcSide{cfg: cfg, llc: cache.New(llcCfg, llcPolicy)}
	if cfg.DRAM != nil {
		e.dram = memory.New(*cfg.DRAM)
	}
	e.sched.init(cfg.Cores)
}

// window is one core's measurement window and its policy-dependent
// clock: the LLC/memory service cycles the core has stalled for. The
// core's clock is its front end's policy-independent cycles plus svc.
type window struct {
	svc    uint64
	closed bool
	base   CoreResult // warm-up baseline
	result CoreResult
}

// cross applies core's crossing cr to its window: the warm-up crossing
// takes the baseline, the budget crossing closes the window, and
// exhaustion closes it when still open and unschedules the core. The
// crossing supplies the policy-independent counters, the LLC the
// per-core shared-cache counters, and the cycle count is the crossing
// step's policy-independent end plus the service cycles so far — the
// core's clock at the end of that step.
func (e *engine) cross(core int, w *window, cr *trace.Crossing) {
	if cr.Kind == trace.CrossExhaust {
		e.sched.times[core] = unscheduled
	}
	if w.closed {
		return
	}
	snap := CoreResult{
		Core:         core,
		Instructions: cr.Instr,
		Cycles:       cr.PEnd + w.svc,
		MemAccesses:  cr.Mem,
		L1Hits:       cr.L1Hits,
		L1Misses:     cr.L1Misses,
		LLCAccesses:  e.llc.Stats.CoreAccesses[core],
		LLCHits:      e.llc.Stats.CoreHits[core],
		LLCMisses:    e.llc.Stats.CoreMisses[core],
	}
	if cr.Kind == trace.CrossWarmup {
		w.base = snap
		return
	}
	w.closed = true
	e.closed++
	w.result = snap.since(w.base)
}

// coreFront is one core's front end: its stream, its private hierarchy
// and the policy-independent half of its clock and counters. None of
// it depends on the LLC policy, so the direct engine (System) and the
// tape recorder step the same front end, and replay needs none.
type coreFront struct {
	stream trace.Stream
	priv   privHier

	// p accumulates the core's policy-independent cycles: workload gaps
	// plus private-hierarchy latencies.
	p     uint64
	instr uint64
	mem   uint64

	// warmAt and budgetAt are the warm-up and budget thresholds in
	// retired instructions, never when not configured; warmed and
	// budgeted latch once each is crossed.
	warmAt, budgetAt uint64
	warmed, budgeted bool
}

// never is a threshold no instruction count reaches.
const never = math.MaxUint64

func newCoreFront(cfg Config, stream trace.Stream) coreFront {
	f := coreFront{stream: stream, priv: newPrivHier(cfg), warmAt: never, budgetAt: never}
	if cfg.WarmupInstr > 0 {
		f.warmAt = cfg.WarmupInstr
	}
	if cfg.InstrBudget > 0 {
		f.budgetAt = cfg.InstrBudget
	}
	return f
}

// retire accounts one memory access that spent cycles in the private
// levels after gap non-memory instructions (one cycle each), and
// reports whether this step crossed the warm-up or the budget
// threshold.
func (f *coreFront) retire(gap, cycles uint64) (warm, record bool) {
	f.p += gap + cycles
	f.instr += gap + 1
	f.mem++
	if !f.warmed && f.instr >= f.warmAt {
		f.warmed, warm = true, true
	}
	if !f.budgeted && f.instr >= f.budgetAt {
		f.budgeted, record = true, true
	}
	return warm, record
}

// crossing is the crossing of kind on the step that started at pstart,
// with the front end's counters as they stand now and events LLC
// events behind it (onEvent: the step was one of them).
func (f *coreFront) crossing(kind trace.CrossKind, events uint64, onEvent bool, pstart uint64) trace.Crossing {
	return trace.Crossing{
		Kind: kind, AfterEvents: events, OnEvent: onEvent,
		PStart: pstart, PEnd: f.p,
		Instr: f.instr, Mem: f.mem,
		L1Hits: f.priv.l1.hits, L1Misses: f.priv.l1.misses,
	}
}

// System is a runnable multicore simulation: every core's front end
// stepped in lockstep with the shared LLC, one access at a time. It is
// the reference that replay (ReplaySystem) must reproduce.
type System struct {
	engine
	cores []directCore
}

// directCore is one core of a direct run. Its clock, front.p + win.svc,
// is also the System's sched.times[core] until its stream runs dry.
type directCore struct {
	front coreFront
	win   window
}

// NewSystem builds a system with one stream per core and the given LLC
// policy. It panics on mismatched stream count or invalid geometry
// (experiment-setup programming errors).
func NewSystem(cfg Config, llcPolicy cache.Policy, streams []trace.Stream) *System {
	if len(streams) != cfg.Cores {
		panic(fmt.Sprintf("cpu: %d streams for %d cores", len(streams), cfg.Cores))
	}
	s := new(System)
	s.init(cfg, llcPolicy)
	s.cores = make([]directCore, cfg.Cores)
	for i := range s.cores {
		s.cores[i].front = newCoreFront(cfg, streams[i])
	}
	return s
}

// Run executes the simulation and returns per-core results. Each core's
// statistics are snapshotted when it reaches the instruction budget, but
// the core keeps issuing until every core has been snapshotted, so the
// slowest core experiences full contention over its entire measured
// window (the standard multiprogrammed-workload methodology). A core
// whose stream runs dry closes its window there. Steps run in global
// (clock, core index) order.
func (s *System) Run() []CoreResult {
	for s.closed < len(s.cores) {
		s.step(s.sched.next())
	}
	out := make([]CoreResult, len(s.cores))
	for i := range s.cores {
		out[i] = s.cores[i].win.result
	}
	return out
}

// step advances core i by one memory access, or closes its window when
// its stream is exhausted. The direct engine applies each crossing on
// the step that makes it, so the crossing's tape position
// (AfterEvents) goes unused.
func (s *System) step(i int) {
	c := &s.cores[i]
	f := &c.front
	a, ok := f.stream.Next()
	if !ok {
		cr := f.crossing(trace.CrossExhaust, 0, false, f.p)
		s.cross(i, &c.win, &cr)
		return
	}
	pstart := f.p
	cycles, deep, miss := f.priv.access(a.Addr, a.PC, a.Kind == trace.Store)
	if miss {
		c.win.svc += s.serve(i, a.Addr, a.PC, a.Kind,
			deep.evValid && deep.evDirty, deep.evTag<<lineShift, deep.evPC)
	}
	warm, record := f.retire(uint64(a.Gap), cycles)
	s.sched.times[i] = f.p + c.win.svc
	if warm {
		cr := f.crossing(trace.CrossWarmup, 0, miss, pstart)
		s.cross(i, &c.win, &cr)
	}
	if record {
		cr := f.crossing(trace.CrossRecord, 0, miss, pstart)
		s.cross(i, &c.win, &cr)
	}
}

// unscheduled is the schedule time of a core that issues nothing more.
const unscheduled = math.MaxUint64

// schedule orders the steps of a run: both engines execute steps in
// global (start time, core index) order. times holds every core's next
// step time in one dense array, so picking the next core scans a few
// words rather than the cores' state.
//
// cand caches the core next returned last; rivalTime/rivalIndex are the
// best (time, index) among the other scheduled cores at the last full
// scan. Between calls only cand's time changes (it is the only core
// that runs), so cand is returned again without a scan while it still
// beats the rival — the common case whenever one core is on a run of
// short steps, and always on a single-core machine.
type schedule struct {
	times      []uint64
	cand       int
	rivalTime  uint64
	rivalIndex int

	// inline stores times for up to 8 cores inside the engine's own
	// allocation.
	inline [8]uint64
}

// init sizes the schedule for cores cores, all at time zero. The
// schedule must not move afterwards (times may point into it).
func (s *schedule) init(cores int) {
	s.times, s.cand = s.inline[:], -1
	if cores > len(s.inline) {
		s.times = make([]uint64, cores)
	}
	s.times = s.times[:cores]
}

// next returns the index of the scheduled core with the smallest time,
// ties to the lower index, or -1 when every core is unscheduled.
func (s *schedule) next() int {
	if c := s.cand; c >= 0 {
		t := s.times[c]
		if t < s.rivalTime || t == s.rivalTime && t != unscheduled && c < s.rivalIndex {
			return c
		}
	}
	return s.scan()
}

// scan is next's full pass over every core.
func (s *schedule) scan() int {
	best, rival := -1, -1
	bestTime, rivalTime := uint64(unscheduled), uint64(unscheduled)
	for i, t := range s.times {
		if t < bestTime {
			best, rival, bestTime, rivalTime = i, best, t, bestTime
		} else if t < rivalTime {
			rival, rivalTime = i, t
		}
	}
	s.cand, s.rivalTime, s.rivalIndex = best, rivalTime, rival
	if rival < 0 {
		s.rivalIndex = math.MaxInt
	}
	return best
}
