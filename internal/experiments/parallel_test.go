package experiments

import (
	"reflect"
	"testing"

	"nucache/internal/sim"
)

// TestGridMatchesSequential is the parallelization contract: the
// scheduler-backed grid must reproduce, value for value, what direct
// sequential mixMetrics calls compute — and therefore byte-identical
// tables. Every cell is its own simulation, so the grid must not replay
// whole policy rows (the multi-lane counter stays flat). A distinct
// budget keeps these keys out of other tests' cache entries.
func TestGridMatchesSequential(t *testing.T) {
	o := Options{Budget: 170_000, Seed: 1, MixLimit: 2, Parallel: 4}.withDefaults()
	specs := StandardPolicies()
	mixes := o.mixes(2)

	before := sim.MultiReplayRuns.Value()
	grid := o.mixMetricsGrid(mixes, specs)
	if got := sim.MultiReplayRuns.Value() - before; got != 0 {
		t.Fatalf("grid replayed %d whole policy rows; cells must run one simulation each", got)
	}

	for i, m := range mixes {
		for j, s := range specs {
			want := o.mixMetrics(m, s)
			if !reflect.DeepEqual(grid[i][j], want) {
				t.Fatalf("%s under %s: grid %+v != sequential %+v",
					m.Name, s.Name, grid[i][j], want)
			}
		}
	}
}

// TestMulticoreTableParallelInvariance renders the 2-core mix table at
// different worker counts and requires identical bytes.
func TestMulticoreTableParallelInvariance(t *testing.T) {
	seq := Options{Budget: 160_000, Seed: 1, MixLimit: 2, Parallel: 1}
	par := Options{Budget: 160_000, Seed: 1, MixLimit: 2, Parallel: 8}
	a := MulticoreComparison(2, seq).Table().String()
	b := MulticoreComparison(2, par).Table().String()
	if a != b {
		t.Fatalf("tables diverge between worker counts:\n--- sequential\n%s\n--- parallel\n%s", a, b)
	}
}

// TestSweepUsesSharedBaseline checks that two sweeps at one configuration
// agree on their baseline-relative scale (the LRU row is cached and
// shared), and that cache reuse does not change results.
func TestSweepUsesSharedBaseline(t *testing.T) {
	o := Options{Budget: 140_000, Seed: 1, MixLimit: 1, Parallel: 2}
	first := DeliWaysSweep(o)
	again := DeliWaysSweep(o)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("repeated sweep differs: %+v vs %+v", first, again)
	}
}

// TestPrefetchAndDRAMStudiesShareGridCells checks that E17 and E18 run
// through the cell driver: their no-prefetch and flat-memory halves are
// E7's LRU and NUcache cells, so after E7 each study is served two cache
// hits per mix. A fresh grid cache keeps other tests' cells out.
func TestPrefetchAndDRAMStudiesShareGridCells(t *testing.T) {
	saved := gridCache
	gridCache = sim.NewCache(8192, "")
	t.Cleanup(func() { gridCache = saved })

	o := Options{Budget: 120_000, Seed: 1, MixLimit: 2}
	MulticoreComparison(4, o)
	want := int64(2 * len(o.mixes(4)))
	for _, study := range []struct {
		name string
		run  func()
	}{
		{"PrefetchStudy", func() { PrefetchStudy(o) }},
		{"DRAMStudy", func() { DRAMStudy(o) }},
	} {
		before := sim.CacheHits.Value()
		study.run()
		if got := sim.CacheHits.Value() - before; got != want {
			t.Errorf("%s after MulticoreComparison: %d cache hits, want %d", study.name, got, want)
		}
	}
}
