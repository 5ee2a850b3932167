package cpu

import (
	"fmt"

	"nucache/internal/cache"
	"nucache/internal/memory"
	"nucache/internal/trace"
)

// The replay engine drives only the shared LLC (and the memory model
// behind it) from per-core filtered tapes, reproducing a direct
// System.Run bit for bit. The key invariant it relies on: in the direct
// engine, steps execute in global (step-start-time, core-index) order,
// and steps that never reach the LLC touch no shared state. So replay
// schedules just the LLC-bound events and the recorded measurement
// crossings, at start times reconstructed as
//
//	time = policy-independent cycles (from the tape's gaps)
//	     + this core's accumulated LLC/memory service cycles (replayed)
//
// which is exactly the core's clock at that step in the direct run.
//
// A replay writes no tape state: tape views are append-only consistent
// snapshots (a view containing event k contains every crossing due at
// or before k), so any number of replays — one per LLC policy — can
// walk the same tapes concurrently, and each one's outcome is
// independent of how far ahead the others have pulled the tape.

// replayCore is one core's replay cursor: its position in the tape and
// its clock. The item sequence it walks (events and crossings, each
// with a policy-independent start component) is the same under every
// policy; only svc — and therefore the cross-core merge order and the
// crossing snapshots — differs.
type replayCore struct {
	index int
	tape  *Tape

	// view is this core's consistent snapshot of its tape, refreshed
	// (and the tape extended) when the core reaches its end.
	view tapeView

	nextCross int

	replayed  uint64              // events replayed so far
	word      uint64              // tape words read so far
	pi        uint64              // policy-independent cycles at the pending event's step start
	svc       uint64              // accumulated LLC/memory service cycles
	pend      trace.FilteredEvent // the pending event
	pendValid bool
	dueCross  bool // next item is view.cross[nextCross], not pend
	recorded  bool

	base   CoreResult
	result CoreResult
}

// ReplaySystem replays one LLC policy over one tape per core. See the
// package comment above for the timing reconstruction it relies on.
type ReplaySystem struct {
	llcSide
	cores []replayCore

	// sched holds each core's next item time; a stopped core is
	// unscheduled.
	sched schedule

	// recorded counts cores whose measurement window has closed — the
	// stop condition, kept as a counter so the per-item loop does not
	// rescan every core.
	recorded int
}

// Machine is the read surface shared by System, ReplaySystem and the
// lanes of a MultiReplaySystem — everything result collection needs
// after a run.
type Machine interface {
	LLC() *cache.Cache
	DRAM() *memory.DRAM
	Prefetches() uint64
}

// NewReplaySystem builds a replay over one tape per core. Tapes must
// have been recorded for a config with the same front end (FrontEndKey);
// the LLC, memory model and prefetch degree may differ freely.
func NewReplaySystem(cfg Config, llcPolicy cache.Policy, tapes []*Tape) *ReplaySystem {
	if len(tapes) != cfg.Cores {
		panic(fmt.Sprintf("cpu: %d tapes for %d cores", len(tapes), cfg.Cores))
	}
	fe := frontEndOf(cfg)
	for i, t := range tapes {
		if t.frontEnd != fe {
			panic(fmt.Sprintf("cpu: tape %d recorded for front end %q, replaying %q",
				i, t.frontEnd, fe))
		}
	}
	rs := new(ReplaySystem)
	rs.llcSide = newLLCSide(cfg, llcPolicy)
	rs.cores = make([]replayCore, cfg.Cores)
	rs.sched.init(cfg.Cores)
	for i, t := range tapes {
		rs.cores[i] = replayCore{index: i, tape: t}
	}
	return rs
}

// Run replays the simulation and returns per-core results identical to
// the equivalent direct System.Run. An error means the replay could not
// complete (a dead tape: an LLC-quiet core, an untaggable stream, a
// corrupt frame); the results are then always nil — never partially
// populated — the LLC state is unusable, and the caller should fall
// back to direct simulation.
func (rs *ReplaySystem) Run() ([]CoreResult, error) {
	if err := rs.run(); err != nil {
		return nil, err
	}
	return rs.results()
}

// run plays items until every core has recorded, preserving the exact
// execution order of the direct engine. That engine checks "everyone
// recorded" before each step, so the step that records the last core is
// also the last step executed. Mirror that exactly: test the condition
// before picking an item, and defer recomputing the played core's next
// item (which could extend its tape past anything a replay needs) until
// the loop continues.
func (rs *ReplaySystem) run() error {
	for i := range rs.cores {
		if err := rs.advance(&rs.cores[i]); err != nil {
			return err
		}
	}
	var last *replayCore
	for rs.recorded < len(rs.cores) {
		if last != nil {
			if err := rs.advance(last); err != nil {
				return err
			}
		}
		c := rs.nextItem()
		if c == nil {
			// Every stream exhausted; results() reports unrecorded cores.
			return nil
		}
		rs.playItem(c)
		last = c
	}
	return nil
}

// results collects the per-core results after the replay finished.
func (rs *ReplaySystem) results() ([]CoreResult, error) {
	out := make([]CoreResult, len(rs.cores))
	for i := range rs.cores {
		c := &rs.cores[i]
		if !c.recorded {
			// Unreachable for well-formed tapes (exhaustion records), but
			// fail safe rather than return partial results.
			return nil, fmt.Errorf("cpu: replay core %d ended unrecorded", i)
		}
		out[i] = c.result
	}
	return out, nil
}

// nextItem picks the core whose next item has the smallest schedule
// time, ties broken by index — the replay analogue of nextCore.
func (rs *ReplaySystem) nextItem() *replayCore {
	if i := rs.sched.next(); i >= 0 {
		return &rs.cores[i]
	}
	return nil
}

// advance computes core c's next item and its schedule time, fetching
// (and if needed extending) the tape view.
func (rs *ReplaySystem) advance(c *replayCore) error {
	next := &rs.sched.times[c.index]
	for *next != unscheduled {
		// A due crossing always precedes the pending event: its step came
		// first, and the snapshot that contained the event also contained
		// every earlier crossing.
		if c.nextCross < len(c.view.cross) {
			if cr := &c.view.cross[c.nextCross]; cr.AfterEvents == c.replayed {
				if cr.OnEvent {
					// Consumed inline by playItem; only reachable for a
					// malformed hand-built tape.
					return fmt.Errorf("cpu: replay core %d: stray on-event crossing", c.index)
				}
				c.dueCross = true
				*next = cr.PStart + c.svc
				return nil
			}
		}
		// The next event is ordinal c.replayed, starting at word c.word:
		// one sequential 8-byte read, two when it carries a writeback. No
		// crossing is due before it (checked above), so its start time is
		// the next item's.
		if !c.pendValid && c.replayed < c.view.events {
			c.word = c.view.event(c.word, &c.pend)
			c.pendValid = true
			c.pi += c.pend.CycleGap
		}
		if c.pendValid {
			*next = c.pi + c.svc
			return nil
		}
		if c.view.complete {
			return fmt.Errorf("cpu: replay core %d ran off its tape", c.index)
		}
		// Pull a fresh view, extending the recording when this core has
		// consumed everything recorded so far. When several replays share
		// the tape, only the leading one ever extends; the others find
		// the tape already long enough.
		v, err := c.tape.snapshot(c.replayed)
		if err != nil {
			return err
		}
		c.view = v
	}
	return nil
}

// playItem executes core c's next item: either a due crossing (advance
// latched dueCross) or the pending event (with any on-event crossings
// attached to it).
func (rs *ReplaySystem) playItem(c *replayCore) {
	if c.dueCross {
		c.dueCross = false
		rs.applyCrossing(c, &c.view.cross[c.nextCross])
		c.nextCross++
		return
	}
	rs.playEvent(c, &c.pend)
	c.pendValid = false
	c.replayed++
	for c.nextCross < len(c.view.cross) {
		cr := &c.view.cross[c.nextCross]
		if cr.AfterEvents != c.replayed || !cr.OnEvent {
			break
		}
		rs.applyCrossing(c, cr)
		c.nextCross++
	}
}

// playEvent replays one LLC-bound event: it re-applies the core's
// address and PC tags and serves the miss exactly as the direct engine
// does.
func (rs *ReplaySystem) playEvent(c *replayCore, ev *trace.FilteredEvent) {
	addrTag := uint64(c.index) << coreAddrShift
	pcTag := uint64(c.index) << corePCShift
	c.svc += rs.serve(c.index, ev.Addr+addrTag, ev.PC|pcTag, ev.Kind,
		ev.HasWB, ev.WBAddr+addrTag, ev.WBPC|pcTag)
}

func (rs *ReplaySystem) applyCrossing(c *replayCore, cr *trace.Crossing) {
	switch cr.Kind {
	case trace.CrossWarmup:
		c.base = rs.snapshotAt(c, cr)
	case trace.CrossRecord:
		rs.recordAt(c, cr)
	case trace.CrossExhaust:
		if !c.recorded {
			rs.recordAt(c, cr)
		}
		rs.sched.times[c.index] = unscheduled
	}
}

// snapshotAt reconstructs the direct engine's cumulative snapshot at a
// crossing: the tape supplies the policy-independent counters, the LLC
// the per-core shared-cache counters, and the cycle count is the
// recorded policy-independent clock plus this core's replayed service.
func (rs *ReplaySystem) snapshotAt(c *replayCore, cr *trace.Crossing) CoreResult {
	return CoreResult{
		Core:         c.index,
		Instructions: cr.Instr,
		Cycles:       cr.PEnd + c.svc,
		MemAccesses:  cr.Mem,
		L1Hits:       cr.L1Hits,
		L1Misses:     cr.L1Misses,
		LLCAccesses:  rs.llc.Stats.CoreAccesses[c.index],
		LLCHits:      rs.llc.Stats.CoreHits[c.index],
		LLCMisses:    rs.llc.Stats.CoreMisses[c.index],
	}
}

func (rs *ReplaySystem) recordAt(c *replayCore, cr *trace.Crossing) {
	if !c.recorded {
		rs.recorded++
	}
	c.recorded = true
	c.result = rs.snapshotAt(c, cr).since(c.base)
}
