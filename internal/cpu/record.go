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
// tagging would not commute with recording, and the event addresses
// the packed words cannot hold (not 64-byte aligned: byte-granular
// traces); the tape is then abandoned and callers fall back to direct
// simulation.

const (
	// maxRawAddr keeps addr + core<<coreAddrShift carry-free and leaves
	// headroom for next-line prefetch addresses derived at replay time.
	maxRawAddr = 1<<coreAddrShift - 1<<20
	// maxRawPC keeps pc | core<<corePCShift equal to addition.
	maxRawPC = 1 << corePCShift
)

// The errors a tape dies of, wrapped with the offending values. A
// replay or profile walk over a dead tape returns one, and its callers
// fall back to direct simulation. ErrCorruptTape is in tape.go.
var (
	// ErrNoLLCEvent: the front end retired a whole instruction budget
	// without an LLC event (see recorder.run).
	ErrNoLLCEvent = errors.New("cpu: front end retired an instruction budget without an LLC event")
	// ErrUntaggable: an access or writeback lies outside the range where
	// per-core tagging commutes with recording.
	ErrUntaggable = errors.New("cpu: access outside the taggable range")
	// ErrUnaligned: an LLC access is not 64-byte aligned, so the event
	// word cannot hold it.
	ErrUnaligned = errors.New("cpu: LLC access not 64-byte aligned")
)

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
	// fixed-size pages of 8-byte words (tape.go), its PCs into the PC
	// table, and crossings into their own list. Mutated only under the
	// owning Tape's lock; words below words and table entries below npcs
	// are immutable once written.
	pages     []*tapePage
	words     uint64
	events    uint64
	pcs       pcTable
	npcs      int
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
		r.err = fmt.Errorf("%w: access %#x/pc %#x", ErrUntaggable, a.Addr, a.PC)
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
				r.err = fmt.Errorf("%w: writeback %#x/pc %#x", ErrUntaggable, ev.WBAddr, ev.WBPC)
				return
			}
		}
		if ev.Addr&63 != 0 {
			r.err = fmt.Errorf("%w: %#x", ErrUnaligned, ev.Addr)
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

// append writes ev's words into the tape's pages. The caller has
// checked that ev's addresses are taggable and 64-byte aligned.
func (r *recorder) append(ev trace.FilteredEvent) {
	w := ev.Addr >> 6
	if ev.Kind == trace.Store {
		w |= storeBit
	}
	if ev.HasWB {
		w |= wbBit
	}
	if i := r.pcIndex(ev.PC); i != escIdx && ev.CycleGap < 1<<gapBits {
		r.put(w | i<<pcIdxShift | ev.CycleGap<<gapShift)
	} else {
		r.put(w | escIdx<<pcIdxShift)
		r.put(ev.PC)
		r.put(ev.CycleGap)
	}
	if ev.HasWB {
		i := r.pcIndex(ev.WBPC)
		r.put(ev.WBAddr>>6 | i<<pcIdxShift)
		if i == escIdx {
			r.put(ev.WBPC)
		}
	}
	r.events++
}

// put appends one word, opening a page when the last one is full.
func (r *recorder) put(w uint64) {
	if r.words&pageMask == 0 {
		r.pages = append(r.pages, new(tapePage))
		r.bytes += pageWords * wordBytes
	}
	r.pages[r.words>>pageShift][r.words&pageMask] = w
	r.words++
}

// pcIndex returns pc's index in the PC table, adding pc while the table
// has room, and escIdx once it is full.
func (r *recorder) pcIndex(pc uint64) uint64 {
	for i, p := range r.pcs[:r.npcs] {
		if p == pc {
			return uint64(i)
		}
	}
	if r.npcs == pcTableSize {
		return escIdx
	}
	r.pcs[r.npcs] = pc
	r.npcs++
	return uint64(r.npcs - 1)
}

func (r *recorder) cross(kind trace.CrossKind, onEvent bool, pstart uint64) {
	r.crossings = append(r.crossings, trace.Crossing{
		Kind: kind, AfterEvents: r.events, OnEvent: onEvent,
		PStart: pstart, PEnd: r.p,
		Instr: r.instr, Mem: r.mem,
		L1Hits: r.priv.l1.hits, L1Misses: r.priv.l1.misses,
	})
}
