package cpu

import (
	"errors"
	"fmt"

	"nucache/internal/trace"
)

// The record pass: run one core's stream through its private L1/L2
// hierarchy (privHier, the model (*System).step also steps), but with no
// shared LLC, and write everything the LLC would see onto the tape's
// event pages. The
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
// tagging would not commute with recording, and the cycle gaps the
// packed record cannot hold; the tape is then abandoned and callers fall
// back to direct simulation.

const (
	// maxRawAddr keeps addr + core<<coreAddrShift carry-free and leaves
	// headroom for next-line prefetch addresses derived at replay time.
	maxRawAddr = 1<<coreAddrShift - 1<<20
	// maxRawPC keeps pc | core<<corePCShift equal to addition.
	maxRawPC = 1 << corePCShift
)

// ErrNoLLCEvent is the error of a tape whose front end retired a whole
// instruction budget without an LLC event (see recorder.run).
var ErrNoLLCEvent = errors.New("cpu: front end retired an instruction budget without an LLC event")

// recorder advances one core's policy-independent front end and grows
// its tape on demand.
type recorder struct {
	cfg    Config
	stream trace.Stream
	priv   privHier

	// p accumulates the core's policy-independent cycles: workload gaps
	// plus private-hierarchy latencies. The core's clock in a real run is
	// p plus the LLC/memory service cycles of its replayed events.
	p     uint64
	instr uint64
	mem   uint64

	// lastEvP / lastEvInstr are p and instr at the start of the previous
	// event's step (the CycleGap base, and the no-event guard's).
	lastEvP     uint64
	lastEvInstr uint64

	// The tape itself: every event is written, still in registers, into
	// fixed-size pages of 16-byte packed records (writeback victims in a
	// sequential side list), and crossings into their own list. Mutated
	// only under the owning Tape's lock; entries below events/wbs are
	// immutable once written.
	evPages   [][]evRec
	wbPages   [][]wbRec
	events    uint64
	wbs       uint64
	bytes     int // page bytes allocated
	crossings []trace.Crossing
	complete  bool // stream exhausted: the tape is final

	warmed   bool
	budgeted bool
	err      error
}

func newRecorder(cfg Config, stream trace.Stream) *recorder {
	return &recorder{cfg: cfg, stream: stream, priv: newPrivHier(cfg)}
}

// run advances the front end until the tape holds at least target events
// or the stream is exhausted. A non-nil error means the tape must not be
// used: the tagging guard tripped, or the front end retired a whole
// instruction budget without an LLC event. Workload streams never end,
// so once a core's working set fits in its private caches no access
// reaches the LLC and an unbounded extension would step forever; failing
// the tape sends its replays to direct simulation instead.
func (r *recorder) run(target uint64) error {
	for r.err == nil && !r.complete && r.events < target {
		r.step()
		if b := r.cfg.InstrBudget; b > 0 && r.instr-r.lastEvInstr >= b {
			r.err = fmt.Errorf("%w (%d instructions)", ErrNoLLCEvent, r.instr-r.lastEvInstr)
		}
	}
	return r.err
}

func (r *recorder) step() {
	a, ok := r.stream.Next()
	if !ok {
		r.crossings = append(r.crossings, trace.Crossing{
			Kind: trace.CrossExhaust, AfterEvents: r.events,
			PStart: r.p, PEnd: r.p,
			Instr: r.instr, Mem: r.mem,
			L1Hits: r.priv.l1.hits, L1Misses: r.priv.l1.misses,
		})
		r.complete = true
		return
	}
	if a.Addr >= maxRawAddr || a.PC >= maxRawPC {
		r.err = fmt.Errorf("cpu: access %#x/pc %#x outside the taggable range", a.Addr, a.PC)
		return
	}
	pstart := r.p
	cycles, deep, isEvent := r.priv.access(a.Addr, a.PC, a.Kind == trace.Store)
	r.p += uint64(a.Gap) + cycles // non-memory instructions, 1 cycle each
	if isEvent {
		ev := trace.FilteredEvent{
			Addr: a.Addr, PC: a.PC, Kind: a.Kind,
			CycleGap: pstart - r.lastEvP,
		}
		if deep.evValid && deep.evDirty {
			ev.HasWB, ev.WBAddr, ev.WBPC = true, deep.evTag<<6, deep.evPC
			if ev.WBAddr >= maxRawAddr || ev.WBPC >= maxRawPC {
				r.err = fmt.Errorf("cpu: writeback %#x/pc %#x outside the taggable range", ev.WBAddr, ev.WBPC)
				return
			}
		}
		if ev.CycleGap>>recGapBits != 0 {
			// 2^38 simulated cycles between two LLC events: never produced
			// by real workloads, and too large for the packed record.
			r.err = fmt.Errorf("cpu: cycle gap %d between LLC events outside the packed range", ev.CycleGap)
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

// append writes ev's packed 16-byte record (and writeback side record)
// into the tape's pages. The caller has checked that ev fits the layout.
func (r *recorder) append(ev trace.FilteredEvent) {
	if r.events&evPageMask == 0 {
		r.evPages = append(r.evPages, make([]evRec, evPageSize))
		r.bytes += evPageSize * evRecBytes
	}
	w0 := ev.Addr | (ev.CycleGap&(1<<recGapLowBits-1))<<recGapLowShift
	if ev.Kind == trace.Store {
		w0 |= recStoreBit
	}
	if ev.HasWB {
		w0 |= recWBBit
		if r.wbs&wbPageMask == 0 {
			r.wbPages = append(r.wbPages, make([]wbRec, wbPageSize))
			r.bytes += wbPageSize * wbRecBytes
		}
		r.wbPages[r.wbs>>wbPageShift][r.wbs&wbPageMask] = wbRec{addr: ev.WBAddr, pc: ev.WBPC}
		r.wbs++
	}
	w1 := ev.PC | (ev.CycleGap>>recGapLowBits)<<recPCBits
	r.evPages[r.events>>evPageShift][r.events&evPageMask] = evRec{w0: w0, w1: w1}
	r.events++
}

func (r *recorder) cross(kind trace.CrossKind, onEvent bool, pstart uint64) {
	r.crossings = append(r.crossings, trace.Crossing{
		Kind: kind, AfterEvents: r.events, OnEvent: onEvent,
		PStart: pstart, PEnd: r.p,
		Instr: r.instr, Mem: r.mem,
		L1Hits: r.priv.l1.hits, L1Misses: r.priv.l1.misses,
	})
}
