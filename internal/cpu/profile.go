package cpu

import "nucache/internal/trace"

// TapeVisitor consumes one core's LLC-bound access stream during a
// profiling walk (WalkTape). Access is called once per LLC access in
// the exact order the replay engine would issue them: the demand access,
// then its prefetch fan-out, then the posted writeback (demand=false for
// the latter two). Crossing is called at the same points the replay
// engine applies statistic crossings; returning false stops the walk.
type TapeVisitor interface {
	Access(addr, pc uint64, kind trace.Kind, demand bool)
	Crossing(cr trace.Crossing) bool
}

// WalkTape walks one core's recorded tape through a visitor, applying
// the same per-core address/PC tagging and access fan-out as replay but
// with no LLC model and no timing: the visitor sees the policy-
// independent access stream, which is what MRC profiling shadows.
func WalkTape(cfg Config, coreIndex int, t *Tape, v TapeVisitor) error {
	var (
		view      tapeView
		walked    uint64 // events delivered to the visitor
		nextCross int
		word      uint64 // tape words read
		ev        trace.FilteredEvent
	)
	addrTag := uint64(coreIndex) << coreAddrShift
	pcTag := uint64(coreIndex) << corePCShift
	lineBytes := uint64(cfg.LLC.LineBytes)
	for {
		// Deliver every crossing due at or before the current position:
		// off-event crossings at ordinal `walked` precede the next event,
		// and an on-event crossing of the event just delivered has
		// AfterEvents == walked after the increment below. Both match the
		// replay engine's delivery points.
		for nextCross < len(view.cross) && view.cross[nextCross].AfterEvents <= walked {
			cr := view.cross[nextCross]
			nextCross++
			if !v.Crossing(cr) {
				return nil
			}
		}
		if walked >= view.events {
			if view.complete {
				return nil
			}
			nv, err := t.snapshot(walked)
			if err != nil {
				return err
			}
			view = nv
			continue
		}
		word = view.event(word, &ev)
		// Mirror llcSide.serve's LLC access order exactly.
		addr := ev.Addr + addrTag
		pc := ev.PC | pcTag
		v.Access(addr, pc, ev.Kind, true)
		for d := 1; d <= cfg.PrefetchDegree; d++ {
			v.Access(addr+uint64(d)*lineBytes, pc, trace.Load, false)
		}
		if ev.HasWB {
			v.Access(ev.WBAddr+addrTag, ev.WBPC|pcTag, trace.Store, false)
		}
		walked++
	}
}
