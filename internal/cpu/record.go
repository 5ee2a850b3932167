package cpu

import (
	"errors"
	"fmt"

	"nucache/internal/trace"
)

// The record pass: step one core's front end (coreFront, the model the
// direct engine System steps too) with no shared LLC, and write
// everything the LLC would see onto the tape's event pages. The front
// end is policy-independent — its hit/miss outcomes, victims and timing
// contributions do not depend on what the shared cache does — so one
// recording serves every LLC policy via ReplaySystem.
//
// Addresses and PCs are recorded untagged (no core bits), just as the
// direct engine runs its private levels, and both engines tag them at
// the LLC (llcSide.serve). That keeps one tape reusable at any core
// position of any mix. A tape fails, and its callers fall back to
// direct simulation, on an access its words cannot hold: an address of
// 2^40 or more (beyond the 34-bit line field) or an LLC access that is
// not 64-byte aligned (byte-granular traces). PCs are stored whole, and
// every private victim comes from an access already checked.

// maxRawAddr is the first address a tape's line field cannot hold.
const maxRawAddr = 1 << (lineBits + lineShift)

// The errors a tape dies of, wrapped with the offending values. A
// replay or profile walk over a dead tape returns one, and its callers
// fall back to direct simulation. ErrCorruptTape is in tape.go.
var (
	// ErrNoLLCEvent: the front end retired a whole instruction budget
	// without an LLC event (see recorder.run).
	ErrNoLLCEvent = errors.New("cpu: front end retired an instruction budget without an LLC event")
	// ErrUntaggable: an access address lies beyond the tape's 40-bit
	// address field.
	ErrUntaggable = errors.New("cpu: access outside the taggable range")
	// ErrUnaligned: an LLC access is not 64-byte aligned, so the event
	// word cannot hold it.
	ErrUnaligned = errors.New("cpu: LLC access not 64-byte aligned")
)

// recorder advances one core's front end and grows its tape on demand.
type recorder struct {
	front coreFront

	// lastEvP / lastEvInstr are front.p and front.instr at the start of
	// the previous event's step (the CycleGap base, and the no-event
	// guard's).
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

	err error
}

func newRecorder(cfg Config, stream trace.Stream) *recorder {
	return &recorder{front: newCoreFront(cfg, stream)}
}

// run advances the front end until the tape holds at least target events
// or the stream is exhausted. A non-nil error means the tape must not be
// used: an access did not fit a tape word, or the front end retired a
// whole instruction budget without an LLC event. Workload streams never
// end, so once a core's working set fits in its private caches no access
// reaches the LLC and an unbounded extension would step forever; failing
// the tape sends its replays to direct simulation instead.
func (r *recorder) run(target uint64) error {
	for r.err == nil && !r.complete && r.events < target {
		r.step()
		if q := r.front.instr - r.lastEvInstr; q >= r.front.budgetAt {
			r.err = fmt.Errorf("%w (%d instructions)", ErrNoLLCEvent, q)
		}
	}
	return r.err
}

func (r *recorder) step() {
	f := &r.front
	a, ok := f.stream.Next()
	if !ok {
		r.crossings = append(r.crossings, f.crossing(trace.CrossExhaust, r.events, false, f.p))
		r.complete = true
		return
	}
	if a.Addr >= maxRawAddr {
		r.err = fmt.Errorf("%w: access %#x", ErrUntaggable, a.Addr)
		return
	}
	pstart := f.p
	cycles, deep, isEvent := f.priv.access(a.Addr, a.PC, a.Kind == trace.Store)
	if isEvent {
		if a.Addr&(1<<lineShift-1) != 0 {
			r.err = fmt.Errorf("%w: %#x", ErrUnaligned, a.Addr)
			return
		}
		ev := trace.FilteredEvent{
			Addr: a.Addr, PC: a.PC, Kind: a.Kind,
			CycleGap: pstart - r.lastEvP,
		}
		if deep.evValid && deep.evDirty {
			ev.HasWB, ev.WBAddr, ev.WBPC = true, deep.evTag<<lineShift, deep.evPC
		}
		r.append(ev)
		r.lastEvP = pstart
		r.lastEvInstr = f.instr
	}
	warm, record := f.retire(uint64(a.Gap), cycles)
	if warm {
		r.crossings = append(r.crossings, f.crossing(trace.CrossWarmup, r.events, isEvent, pstart))
	}
	if record {
		r.crossings = append(r.crossings, f.crossing(trace.CrossRecord, r.events, isEvent, pstart))
	}
}

// append writes ev's words into the tape's pages. The caller has
// checked that ev's address fits a line field and is 64-byte aligned.
func (r *recorder) append(ev trace.FilteredEvent) {
	w := ev.Addr >> lineShift
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
		r.put(ev.WBAddr>>lineShift | i<<pcIdxShift)
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
