package sim

import (
	"reflect"
	"testing"
	"time"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/policy"
	"nucache/internal/workload"
)

// Retired-instruction accounting contract: RunMachine adds to
// InstructionsRetired exactly once per simulation it computes — the same
// amount whether the run went through replay or direct simulation — and
// layers above never count again (cache hits are covered by the
// experiments-level test on the grid cache).
// drainBackground waits until no scheduler job is executing anywhere in
// the process. Deadline-abandoned jobs from earlier tests finish in the
// background by design and add to InstructionsRetired when they do; a
// delta measured while one is still running is meaningless.
func drainBackground(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for JobsRunning.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d background jobs still running", JobsRunning.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRetiredAccountingReplayVsDirect(t *testing.T) {
	drainBackground(t)
	cfg := cpu.DefaultConfig(2)
	cfg.InstrBudget = 40_000
	mix := workload.Mix{Name: "retired-test", Members: []string{"art-like", "swim-like"}}
	newPol := func() cache.Policy { return policy.NewLRU() }

	before := InstructionsRetired.Value()
	dRes, _, _ := RunMachine(cfg, newPol, mix, 99, true) // direct
	directDelta := InstructionsRetired.Value() - before

	var want int64
	for _, r := range dRes {
		want += int64(r.Instructions)
	}
	if directDelta != want {
		t.Fatalf("direct run retired %d, results sum to %d", directDelta, want)
	}

	before = InstructionsRetired.Value()
	rRes, _, _ := RunMachine(cfg, newPol, mix, 99, false) // replay (records tapes)
	replayDelta := InstructionsRetired.Value() - before
	if replayDelta != directDelta {
		t.Fatalf("replay run retired %d, direct retired %d", replayDelta, directDelta)
	}
	if !reflect.DeepEqual(dRes, rRes) {
		t.Fatalf("replay results diverge from direct\nreplay: %+v\ndirect: %+v", rRes, dRes)
	}

	// A second replay of the now-recorded tapes still counts: it is a
	// fresh simulation (of a possibly different policy), not a cache hit.
	before = InstructionsRetired.Value()
	RunMachine(cfg, newPol, mix, 99, false)
	if again := InstructionsRetired.Value() - before; again != directDelta {
		t.Fatalf("second replay retired %d, want %d", again, directDelta)
	}

	// A two-lane grid row counts each lane once, and every lane equals
	// the direct run, whether the row replays as one multi-lane system
	// or, with noMulti, lane by lane (MultiReplayRuns stays put).
	for _, noMulti := range []bool{true, false} {
		before, runs := InstructionsRetired.Value(), MultiReplayRuns.Value()
		grid, _, _ := RunMachineGrid(cfg, []func() cache.Policy{newPol, newPol}, mix, 99, false, noMulti, nil)
		if got := InstructionsRetired.Value() - before; got != 2*directDelta {
			t.Errorf("noMulti=%v: grid retired %d, want %d", noMulti, got, 2*directDelta)
		}
		wantRuns := int64(1)
		if noMulti {
			wantRuns = 0
		}
		if got := MultiReplayRuns.Value() - runs; got != wantRuns {
			t.Errorf("noMulti=%v: %d multi-lane replays, want %d", noMulti, got, wantRuns)
		}
		for i, lane := range grid {
			if !reflect.DeepEqual(lane, dRes) {
				t.Errorf("noMulti=%v: lane %d diverges from direct\nlane:   %+v\ndirect: %+v", noMulti, i, lane, dRes)
			}
		}
	}
}

// RunMachineOneShot replays only tapes some other run already recorded;
// either way its accounting matches the direct run.
func TestRetiredAccountingOneShot(t *testing.T) {
	drainBackground(t)
	cfg := cpu.DefaultConfig(1)
	cfg.InstrBudget = 40_000
	alone := workload.Mix{Name: "retired-oneshot", Members: []string{"mcf-like"}}
	newPol := func() cache.Policy { return policy.NewLRU() }

	before := InstructionsRetired.Value()
	res, _, _ := RunMachineOneShot(cfg, newPol, alone, 101, false)
	delta := InstructionsRetired.Value() - before
	var want int64
	for _, r := range res {
		want += int64(r.Instructions)
	}
	if delta != want {
		t.Fatalf("one-shot run retired %d, results sum to %d", delta, want)
	}
}
