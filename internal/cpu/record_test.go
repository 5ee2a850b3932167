package cpu

import (
	"slices"
	"testing"

	"nucache/internal/trace"
	"nucache/internal/workload"
)

// TestTapeCrossings: the recorder's crossings ride the tape in order —
// warm-up, budget, exhaustion — each at the event count and counters of
// its step, and a view handed out before the tape grew keeps seeing the
// same crossing prefix.
func TestTapeCrossings(t *testing.T) {
	cfg := integrityConfig()
	cfg.WarmupInstr = 10_000
	tape := NewTape(cfg, trace.NewLimitStream(workload.MustByName("swim-like").Stream(1), 30_000))
	var views []tapeView
	for v := (tapeView{}); !v.complete; views = append(views, v) {
		var err error
		if v, err = tape.snapshot(v.events); err != nil {
			t.Fatal(err)
		}
	}
	if len(views) < 2 {
		t.Fatalf("tape completed in %d extension; want several", len(views))
	}
	last := views[len(views)-1]
	want := []trace.CrossKind{trace.CrossWarmup, trace.CrossRecord, trace.CrossExhaust}
	if len(last.cross) != len(want) {
		t.Fatalf("crossings %+v, want kinds %v", last.cross, want)
	}
	var prev trace.Crossing
	for i, cr := range last.cross {
		if cr.Kind != want[i] {
			t.Fatalf("crossing %d kind %d, want %d", i, cr.Kind, want[i])
		}
		if cr.AfterEvents < prev.AfterEvents || cr.AfterEvents > last.events ||
			cr.PStart > cr.PEnd || cr.PStart < prev.PStart || cr.Instr < prev.Instr {
			t.Fatalf("crossing %d out of order: %+v after %+v (%d events)", i, cr, prev, last.events)
		}
		prev = cr
	}
	if w, r := last.cross[0], last.cross[1]; w.Instr < cfg.WarmupInstr || r.Instr < cfg.InstrBudget {
		t.Fatalf("crossings before their thresholds: warm-up %+v, budget %+v", w, r)
	}
	if ex := last.cross[2]; ex.AfterEvents != last.events || ex.OnEvent {
		t.Fatalf("exhaustion crossing %+v, want off-event after all %d events", ex, last.events)
	}
	for i, v := range views[:len(views)-1] {
		if v.complete {
			t.Fatalf("view %d complete before the stream ran dry", i)
		}
		if !slices.Equal(v.cross, last.cross[:len(v.cross)]) {
			t.Fatalf("view %d crossings %+v are not a prefix of %+v", i, v.cross, last.cross)
		}
	}
}
