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
// behind it and the traffic counters. System and ReplaySystem embed it
// and send every private-hierarchy miss through serve, so the LLC
// access order is written down once.
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

func newLLCSide(cfg Config, llcPolicy cache.Policy) llcSide {
	if cfg.Cores <= 0 {
		panic("cpu: non-positive core count")
	}
	llcCfg := cfg.LLC
	if llcCfg.Name == "" {
		llcCfg.Name = "LLC"
	}
	llcCfg.Cores = cfg.Cores
	s := llcSide{cfg: cfg, llc: cache.New(llcCfg, llcPolicy)}
	if cfg.DRAM != nil {
		s.dram = memory.New(*cfg.DRAM)
	}
	return s
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
// private victim (when wb). Addresses and PCs arrive core-tagged. It
// returns the cycles the core stalls for; prefetches and writebacks are
// free in time.
func (s *llcSide) serve(core int, addr, pc uint64, kind trace.Kind, wb bool, wbAddr, wbPC uint64) uint64 {
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
		s.dram.Touch(res.EvictedTag << 6)
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
		s.req = cache.Request{Addr: wbAddr, PC: wbPC, Core: core, Kind: trace.Store}
		s.llc.Access(&s.req)
	}
	return svc
}

// coreState is one core of a direct run. Its clock is the System's
// sched.times[index], unscheduled once its stream is exhausted.
type coreState struct {
	index    int
	stream   trace.Stream
	priv     privHier
	instr    uint64
	mem      uint64
	recorded bool // statistics snapshotted at the instruction budget
	warmed   bool // warm-up baseline captured
	base     CoreResult
	result   CoreResult
}

// System is a runnable multicore simulation.
type System struct {
	llcSide
	cores []*coreState
	sched schedule
}

// NewSystem builds a system with one stream per core and the given LLC
// policy. It panics on mismatched stream count or invalid geometry
// (experiment-setup programming errors).
func NewSystem(cfg Config, llcPolicy cache.Policy, streams []trace.Stream) *System {
	if len(streams) != cfg.Cores {
		panic(fmt.Sprintf("cpu: %d streams for %d cores", len(streams), cfg.Cores))
	}
	s := &System{llcSide: newLLCSide(cfg, llcPolicy)}
	s.sched.init(cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, &coreState{index: i, stream: streams[i], priv: newPrivHier(cfg)})
	}
	return s
}

// Run executes the simulation and returns per-core results. Each core's
// statistics are snapshotted when it reaches the instruction budget, but
// the core keeps issuing until every core has been snapshotted, so the
// slowest core experiences full contention over its entire measured
// window (the standard multiprogrammed-workload methodology).
func (s *System) Run() []CoreResult {
	for !s.allRecorded() {
		c := s.nextCore()
		if c == nil {
			break // every stream exhausted
		}
		s.step(c)
	}
	out := make([]CoreResult, len(s.cores))
	for i, c := range s.cores {
		if !c.recorded {
			s.record(c)
		}
		out[i] = c.result
	}
	return out
}

func (s *System) allRecorded() bool {
	for _, c := range s.cores {
		if !c.recorded {
			return false
		}
	}
	return true
}

// nextCore picks the still-issuing core with the smallest local clock
// (ties broken by index for determinism).
func (s *System) nextCore() *coreState {
	if i := s.sched.next(); i >= 0 {
		return s.cores[i]
	}
	return nil
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

// step advances one memory access on core c.
func (s *System) step(c *coreState) {
	a, ok := c.stream.Next()
	if !ok {
		if !c.recorded {
			s.record(c)
		}
		s.sched.times[c.index] = unscheduled
		return
	}
	addr := a.Addr + uint64(c.index)<<coreAddrShift
	pc := a.PC | uint64(c.index)<<corePCShift

	cycles, deep, miss := c.priv.access(addr, pc, a.Kind == trace.Store)
	cycles += uint64(a.Gap) // non-memory instructions, 1 cycle each
	if miss {
		cycles += s.serve(c.index, addr, pc, a.Kind,
			deep.evValid && deep.evDirty, deep.evTag<<6, deep.evPC)
	}
	s.sched.times[c.index] += cycles

	c.instr += uint64(a.Gap) + 1
	c.mem++
	if s.cfg.WarmupInstr > 0 && !c.warmed && c.instr >= s.cfg.WarmupInstr {
		c.warmed = true
		c.base = s.snapshot(c)
	}
	if s.cfg.InstrBudget > 0 && !c.recorded && c.instr >= s.cfg.InstrBudget {
		s.record(c)
	}
}

// snapshot reads a core's cumulative counters.
func (s *System) snapshot(c *coreState) CoreResult {
	return CoreResult{
		Core:         c.index,
		Instructions: c.instr,
		Cycles:       s.sched.times[c.index],
		MemAccesses:  c.mem,
		L1Hits:       c.priv.l1.hits,
		L1Misses:     c.priv.l1.misses,
		LLCAccesses:  s.llc.Stats.CoreAccesses[c.index],
		LLCHits:      s.llc.Stats.CoreHits[c.index],
		LLCMisses:    s.llc.Stats.CoreMisses[c.index],
	}
}

// record snapshots a core's statistics at its measurement endpoint,
// re-based past the warm-up region when one was configured.
func (s *System) record(c *coreState) {
	c.recorded = true
	c.result = s.snapshot(c).since(c.base)
}
