package cpu

import (
	"fmt"

	"nucache/internal/trace"
)

// The record pass: run one core's stream through its private L1/L2
// hierarchy exactly as (*System).step does, but with no shared LLC, and
// append everything the LLC would see to a trace.FilteredTrace. The
// private hierarchy is policy-independent — its hit/miss outcomes,
// victims and timing contributions do not depend on what the shared
// cache does — so one recording serves every LLC policy via
// ReplaySystem.
//
// Addresses and PCs are recorded untagged (no core bits). The private
// caches behave identically on untagged addresses because core tagging
// adds bits far above any set-index or line-offset bit, and the replay
// engine re-applies the per-core tags. That keeps one tape reusable at
// any core position of any mix. The guards below reject the (never
// generated, but possible via custom streams) addresses for which
// tagging would not commute with recording; the tape is then abandoned
// and callers fall back to direct simulation.

const (
	// maxRawAddr keeps addr + core<<coreAddrShift carry-free and leaves
	// headroom for next-line prefetch addresses derived at replay time.
	maxRawAddr = 1<<coreAddrShift - 1<<20
	// maxRawPC keeps pc | core<<corePCShift equal to addition.
	maxRawPC = 1 << corePCShift
)

// recorder advances one core's policy-independent front end and grows
// its filtered tape on demand. It mirrors (*System).step statement for
// statement on the private-hierarchy side (keep the two in sync), with
// the private caches modeled by privCache — semantically identical to
// the direct engine's cache.Cache + l1lru, but specialized for speed.
type recorder struct {
	cfg    Config
	stream trace.Stream
	l1     *privCache
	l2     *privCache // nil when the private L2 is disabled
	tr     *trace.FilteredTrace

	// p accumulates the core's policy-independent cycles: workload gaps
	// plus private-hierarchy latencies. The core's clock in a real run is
	// p plus the LLC/memory service cycles of its replayed events.
	p     uint64
	instr uint64
	mem   uint64

	// lastEvP / lastEvInstr are p and instr at the start of the previous
	// event's step (delta bases for CycleGap/InstrGap).
	lastEvP     uint64
	lastEvInstr uint64

	// The decoded mirror: every event appended to the packed tape is
	// also written, still in registers, into fixed-size pages of 16-byte
	// packed records (writeback victims in a sequential side list) so
	// replays never re-decode the varint stream — and touch a quarter of
	// the cache lines a full struct mirror would. Mirroring stops
	// (permanently for this tape) when the process-wide decode budget
	// runs out or a field outruns the packed layout; stopOff/stopAddr/
	// stopPC then let a ResumeCursor stream-decode the rest of the packed
	// buffer from exactly that point. Mutated only under the owning
	// Tape's lock.
	decPages   [][]decEvent
	wbPages    [][]wbRec
	decCount   uint64
	wbCount    uint64
	decCounted int // bytes charged to decBytes
	decStopped bool
	stopOff    int
	stopAddr   uint64
	stopPC     uint64

	warmed   bool
	budgeted bool
	err      error
}

func newRecorder(cfg Config, stream trace.Stream) *recorder {
	r := &recorder{
		cfg:    cfg,
		stream: stream,
		l1:     newPrivCache(cfg.L1),
		tr:     &trace.FilteredTrace{},
	}
	if cfg.L2.SizeBytes > 0 {
		r.l2 = newPrivCache(cfg.L2)
	}
	return r
}

// run advances the front end until the tape holds at least target events
// or the stream is exhausted. A non-nil error means the tape must not be
// used: the tagging guard tripped, or the front end retired a whole
// instruction budget without an LLC event. Workload streams never end,
// so once a core's working set fits in its private caches no access
// reaches the LLC and an unbounded extension would step forever; failing
// the tape sends its replays to direct simulation instead.
func (r *recorder) run(target uint64) error {
	for r.err == nil && !r.tr.Complete() && r.tr.Events() < target {
		r.step()
		if b := r.cfg.InstrBudget; b > 0 && r.instr-r.lastEvInstr >= b {
			r.err = fmt.Errorf("cpu: front end retired %d instructions without an LLC event", r.instr-r.lastEvInstr)
		}
	}
	return r.err
}

func (r *recorder) step() {
	a, ok := r.stream.Next()
	if !ok {
		r.tr.AppendCrossing(trace.Crossing{
			Kind: trace.CrossExhaust, AfterEvents: r.tr.Events(),
			PStart: r.p, PEnd: r.p,
			Instr: r.instr, Mem: r.mem,
			L1Hits: r.l1.hits, L1Misses: r.l1.misses,
		})
		r.tr.MarkComplete()
		return
	}
	if a.Addr >= maxRawAddr || a.PC >= maxRawPC {
		r.err = fmt.Errorf("cpu: access %#x/pc %#x outside the taggable range", a.Addr, a.PC)
		return
	}
	pstart := r.p
	r.p += uint64(a.Gap) // non-memory instructions, 1 cycle each

	l1res := r.l1.access(a.Addr, a.PC, a.Kind == trace.Store)
	var ev trace.FilteredEvent
	isEvent := false
	switch {
	case l1res.hit:
		r.p += r.cfg.L1Latency
	case r.l2 != nil:
		r.p += r.cfg.L1Latency + r.cfg.L2Latency
		l2res := r.l2.access(a.Addr, a.PC, a.Kind == trace.Store)
		// The L1 victim drains into the private L2 (posted); the drain's
		// own L2 victim is dropped, exactly as in (*System).step.
		if l1res.evValid && l1res.evDirty {
			r.l2.access(l1res.evTag<<6, l1res.evPC, true)
		}
		if !l2res.hit {
			ev, isEvent = r.makeEvent(a, pstart, l2res), true
		}
	default:
		r.p += r.cfg.L1Latency
		ev, isEvent = r.makeEvent(a, pstart, l1res), true
	}
	if isEvent {
		if ev.HasWB && (ev.WBAddr >= maxRawAddr || ev.WBPC >= maxRawPC) {
			r.err = fmt.Errorf("cpu: writeback %#x/pc %#x outside the taggable range", ev.WBAddr, ev.WBPC)
			return
		}
		r.append(ev)
		r.lastEvP = pstart
		r.lastEvInstr = r.instr
	}

	r.instr += uint64(a.Gap) + 1
	r.mem++
	if r.cfg.WarmupInstr > 0 && !r.warmed && r.instr >= r.cfg.WarmupInstr {
		r.warmed = true
		r.cross(trace.CrossWarmup, isEvent, pstart)
	}
	if r.cfg.InstrBudget > 0 && !r.budgeted && r.instr >= r.cfg.InstrBudget {
		r.budgeted = true
		r.cross(trace.CrossRecord, isEvent, pstart)
	}
}

// append packs ev onto the tape and mirrors it into the decoded pages
// (unless the decode budget stopped the mirror for good).
func (r *recorder) append(ev trace.FilteredEvent) {
	if !r.decStopped {
		r.mirror(ev)
	}
	r.tr.AppendEvent(ev)
}

// mirror writes ev's packed 16-byte record (and writeback side record),
// or latches decStopped — capturing the encoder position a ResumeCursor
// needs — when the budget is exhausted or ev doesn't fit the layout.
func (r *recorder) mirror(ev trace.FilteredEvent) {
	if ev.CycleGap>>decGapBits != 0 {
		// A gap too large for the packed record (2^38 simulated cycles
		// between two LLC events) — never produced by real workloads.
		r.stopMirror()
		return
	}
	if r.decCount&decPageMask == 0 {
		if decBytes.Load() >= tapeBudget.Load() {
			r.stopMirror()
			return
		}
		r.decPages = append(r.decPages, make([]decEvent, decPageSize))
		r.charge(decPageSize * decEventBytes)
	}
	w0 := ev.Addr | (ev.CycleGap&(1<<decGapLowBits-1))<<decGapLowShift
	if ev.Kind == trace.Store {
		w0 |= decStoreBit
	}
	if ev.HasWB {
		w0 |= decWBBit
		if r.wbCount&wbPageMask == 0 {
			// Writeback pages are charged but not gated: the event-page
			// check above bounds the mirror's growth between checks.
			r.wbPages = append(r.wbPages, make([]wbRec, wbPageSize))
			r.charge(wbPageSize * wbRecBytes)
		}
		r.wbPages[r.wbCount>>wbPageShift][r.wbCount&wbPageMask] = wbRec{addr: ev.WBAddr, pc: ev.WBPC}
		r.wbCount++
	}
	w1 := ev.PC | (ev.CycleGap>>decGapLowBits)<<decPCBits
	r.decPages[r.decCount>>decPageShift][r.decCount&decPageMask] = decEvent{w0: w0, w1: w1}
	r.decCount++
}

func (r *recorder) stopMirror() {
	r.decStopped = true
	r.stopOff, r.stopAddr, r.stopPC = r.tr.Pos()
}

func (r *recorder) charge(n int) {
	decBytes.Add(int64(n))
	r.decCounted += n
}

func (r *recorder) makeEvent(a trace.Access, pstart uint64, upper privResult) trace.FilteredEvent {
	ev := trace.FilteredEvent{
		Addr: a.Addr, PC: a.PC, Kind: a.Kind,
		CycleGap: pstart - r.lastEvP,
		InstrGap: r.instr - r.lastEvInstr,
	}
	if upper.evValid && upper.evDirty {
		ev.HasWB = true
		ev.WBAddr = upper.evTag << 6
		ev.WBPC = upper.evPC
	}
	return ev
}

func (r *recorder) cross(kind trace.CrossKind, onEvent bool, pstart uint64) {
	r.tr.AppendCrossing(trace.Crossing{
		Kind: kind, AfterEvents: r.tr.Events(), OnEvent: onEvent,
		PStart: pstart, PEnd: r.p,
		Instr: r.instr, Mem: r.mem,
		L1Hits: r.l1.hits, L1Misses: r.l1.misses,
	})
}
