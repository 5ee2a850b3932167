package experiments

import (
	"strings"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

// Small budgets keep the suite fast; shapes (not magnitudes) are asserted.
func quickOpts() Options {
	return Options{Budget: 250_000, Seed: 1, MixLimit: 2, BenchLimit: 4}
}

func TestDelinquencyShape(t *testing.T) {
	o := quickOpts()
	o.BenchLimit = 0
	res := Delinquency(o)
	if len(res.Rows) != 16 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TotalMisses == 0 {
			continue // cache-friendly models may not miss at tiny budgets
		}
		if row.Top20 < row.Top10 || row.Top10 < row.Top5 || row.Top5 < row.Top1 {
			t.Fatalf("%s: non-monotone skew %+v", row.Bench, row)
		}
		if row.Top20 > 1.0001 {
			t.Fatalf("%s: top-20 fraction %v > 1", row.Bench, row.Top20)
		}
		// The paper's observation: misses are PC-concentrated. All our
		// models have few static PCs, so top-20 must cover everything.
		if row.Top20 < 0.99 {
			t.Fatalf("%s: top-20 only %.2f", row.Bench, row.Top20)
		}
	}
	if res.Table().NumRows() != len(res.Rows) {
		t.Fatal("table rows mismatch")
	}
}

func TestNextUseProfileShape(t *testing.T) {
	o := quickOpts()
	res := NextUseProfile(o)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	sawReuse := false
	for _, row := range res.Rows {
		if row.Reuses > row.Misses+row.Reuses { // sanity: reuses bounded
			t.Fatalf("%s/%#x: reuses %d", row.Bench, row.PC, row.Reuses)
		}
		if row.Reuses > 0 {
			sawReuse = true
			if row.P25 > row.P50 || row.P50 > row.P75 {
				t.Fatalf("%s/%#x: quantiles not monotone", row.Bench, row.PC)
			}
			if row.Within64 < 0 || row.Within64 > 1 {
				t.Fatalf("Within64 = %v", row.Within64)
			}
		}
	}
	if !sawReuse {
		t.Fatal("no PC showed any next-use reuse")
	}
	if res.Table().NumRows() == 0 {
		t.Fatal("empty table")
	}
}

func TestPotentialShape(t *testing.T) {
	o := quickOpts()
	res := Potential(o)
	for _, row := range res.Rows {
		// OPT is offline-optimal: never more misses than LRU.
		if row.OPTMisses > row.LRUMisses {
			t.Fatalf("%s: OPT %d > LRU %d", row.Bench, row.OPTMisses, row.LRUMisses)
		}
		if row.OPTReduction < 0 || row.OPTReduction > 1 {
			t.Fatalf("%s: reduction %v", row.Bench, row.OPTReduction)
		}
	}
	if res.Table().NumRows() != len(res.Rows) {
		t.Fatal("table mismatch")
	}
}

// TestSingleCoreExperimentsReplayOneTape checks that the single-core
// tables run through sim.RunMachine: Potential's three passes over a
// benchmark record its front end once and replay that tape, and the
// row still equals direct simulation miss for miss.
func TestSingleCoreExperimentsReplayOneTape(t *testing.T) {
	o := Options{Budget: 210_000, Seed: 1, Only: "art-like"}
	cpu.ResetTapes()
	recorded, replayed := cpu.TapesRecorded(), sim.TracesReplayed.Value()
	res := Potential(o)
	if n := cpu.TapesRecorded() - recorded; n != 1 {
		t.Errorf("Potential recorded %d tapes, want 1", n)
	}
	if n := sim.TracesReplayed.Value() - replayed; n < 3 {
		t.Errorf("Potential replayed %d times, want at least 3", n)
	}

	cfg := cpu.DefaultConfig(1)
	cfg.InstrBudget = o.Budget
	b := workload.MustByName("art-like")
	direct := func(p cache.Policy) uint64 {
		return cpu.NewSystem(cfg, p, []trace.Stream{b.Stream(o.Seed)}).Run()[0].LLCMisses
	}
	rec := policy.NewRecorder(policy.NewLRU())
	want := PotentialRow{Bench: b.Name, LRUMisses: direct(rec)}
	want.OPTMisses = direct(policy.NewOPT(policy.NextUseChain(rec.LineAddrs)))
	want.NUMisses = direct(NUcacheSpec().New(1, cfg.LLC.Ways))
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(res.Rows))
	}
	got := res.Rows[0]
	if got.Bench != want.Bench || got.LRUMisses != want.LRUMisses ||
		got.OPTMisses != want.OPTMisses || got.NUMisses != want.NUMisses {
		t.Fatalf("replayed row %+v, direct simulation %+v", got, want)
	}
}

func TestSingleCoreShape(t *testing.T) {
	o := Options{Budget: 400_000, Seed: 1, BenchLimit: 0}
	res := SingleCore(o)
	if len(res.Rows) != 16 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Geomean < 0.97 {
		t.Fatalf("geomean speedup %.3f: NUcache broadly hurting", res.Geomean)
	}
	won := 0
	for _, row := range res.Rows {
		if row.Speedup > 1.02 {
			won++
		}
		if row.Speedup < 0.90 && row.BaseIPC > 0 {
			t.Fatalf("%s: NUcache slowdown %.3f", row.Bench, row.Speedup)
		}
	}
	if won == 0 {
		t.Fatal("NUcache won on no benchmark")
	}
}

func TestMulticoreComparisonShape(t *testing.T) {
	res := MulticoreComparison(2, quickOpts())
	if len(res.Mixes) != 2 || len(res.WS) != 2 {
		t.Fatalf("mixes %d ws %d", len(res.Mixes), len(res.WS))
	}
	if res.Policies[0] != "LRU" {
		t.Fatal("baseline must be first")
	}
	for _, p := range res.Policies {
		if res.GeomeanNorm[p] <= 0 {
			t.Fatalf("geomean for %s = %v", p, res.GeomeanNorm[p])
		}
	}
	for i, row := range res.WS {
		for _, p := range res.Policies {
			mm := row[p]
			// Shared-mode runs under a better-than-baseline policy can
			// slightly beat the alone-LRU denominator, so WS may exceed
			// the core count by a little — but not wildly.
			if mm.WS <= 0 || mm.WS > 1.5*float64(res.Cores) {
				t.Fatalf("mix %d policy %s WS %v out of range", i, p, mm.WS)
			}
			if mm.ANTT < 0.5 {
				t.Fatalf("ANTT %v implausibly low", mm.ANTT)
			}
		}
	}
	tbl := res.Table().String()
	if !strings.Contains(tbl, "geomean") {
		t.Fatal("table missing geomean row")
	}
}

func TestFairnessComparisonShape(t *testing.T) {
	res := FairnessComparison(2, quickOpts())
	for _, p := range res.Policies {
		if res.ANTT[p] < 0.5 {
			t.Fatalf("%s ANTT %v", p, res.ANTT[p])
		}
		if res.HS[p] <= 0 || res.HS[p] > 1.5 {
			t.Fatalf("%s HS %v", p, res.HS[p])
		}
		if res.Fairness[p] < 0 || res.Fairness[p] > 1.001 {
			t.Fatalf("%s fairness %v", p, res.Fairness[p])
		}
	}
	if res.Table().NumRows() != len(res.Policies) {
		t.Fatal("table mismatch")
	}
}

func TestSweepShapes(t *testing.T) {
	o := Options{Budget: 150_000, Seed: 1, MixLimit: 1}
	for _, sw := range []*SweepResult{
		DeliWaysSweep(o), EpochSweep(o), SamplingSweep(o),
	} {
		if len(sw.Points) < 4 {
			t.Fatalf("%s: %d points", sw.Title, len(sw.Points))
		}
		for _, p := range sw.Points {
			if p.Geomean <= 0 {
				t.Fatalf("%s/%s: geomean %v", sw.Title, p.Label, p.Geomean)
			}
		}
		if sw.Table().NumRows() != len(sw.Points) {
			t.Fatal("table mismatch")
		}
	}
}

func TestPCCountSweepShape(t *testing.T) {
	o := Options{Budget: 150_000, Seed: 1, MixLimit: 1}
	sw := PCCountSweep(o)
	if len(sw.Points) != 9 {
		t.Fatalf("%d points", len(sw.Points))
	}
}

func TestConfigAndOverheadTables(t *testing.T) {
	cfg := ConfigTable(Options{})
	if cfg.NumRows() < 6 {
		t.Fatalf("config table rows = %d", cfg.NumRows())
	}
	s := cfg.String()
	for _, want := range []string{"LLC", "DeliWays", "candidates"} {
		if !strings.Contains(s, want) {
			t.Fatalf("config table missing %q:\n%s", want, s)
		}
	}
	ov := OverheadTable(Options{})
	if ov.NumRows() != 3 {
		t.Fatalf("overhead rows = %d", ov.NumRows())
	}
}

func TestAloneCacheMemoizes(t *testing.T) {
	o := Options{Budget: 100_000, Seed: 1}.withDefaults()
	a := o.aloneIPC("twolf-like", 2)
	b := o.aloneIPC("twolf-like", 2)
	if a != b || a <= 0 {
		t.Fatalf("alone IPC %v vs %v", a, b)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Budget != 5_000_000 || o.Seed != 1 {
		t.Fatalf("defaults %+v", o)
	}
	if n := len(Options{MixLimit: 3}.mixes(2)); n != 3 {
		t.Fatalf("mix limit gave %d", n)
	}
	if n := len(Options{BenchLimit: 2}.benchmarks()); n != 2 {
		t.Fatalf("bench limit gave %d", n)
	}
	if len(StandardPolicies()) != 5 {
		t.Fatal("standard policy lineup changed")
	}
}

func TestFmtPC(t *testing.T) {
	if got := fmtPC(0x400100); got != "0x400100" {
		t.Fatalf("fmtPC = %q", got)
	}
	if got := fmtPC(0x400100 | 3<<48); got != "c3:0x400100" {
		t.Fatalf("fmtPC core = %q", got)
	}
}

func TestIdealRetentionShape(t *testing.T) {
	o := quickOpts()
	res := IdealRetention(o)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.OracleMisses > row.LRUMisses {
			// The oracle's fixed M/D split can lose slightly to full
			// 16-way LRU on retention-hostile programs, but not by much.
			if float64(row.OracleMisses) > 1.1*float64(row.LRUMisses) {
				t.Fatalf("%s: oracle %d misses >> LRU %d", row.Bench, row.OracleMisses, row.LRUMisses)
			}
		}
	}
	if res.Table().NumRows() != len(res.Rows) {
		t.Fatal("table mismatch")
	}
}

func TestPrefetchStudyShape(t *testing.T) {
	o := Options{Budget: 200_000, Seed: 1, MixLimit: 1}
	res := PrefetchStudy(o)
	if res.GainNoPf <= 0 || res.GainPf <= 0 {
		t.Fatalf("gains %v / %v", res.GainNoPf, res.GainPf)
	}
	if res.BaseWSNoPf <= 0 || res.BaseWSPf <= 0 {
		t.Fatalf("base WS %v / %v", res.BaseWSNoPf, res.BaseWSPf)
	}
	if res.Table().NumRows() != 2 {
		t.Fatal("table rows")
	}
}

func TestDRAMStudyShape(t *testing.T) {
	o := Options{Budget: 200_000, Seed: 1, MixLimit: 1}
	res := DRAMStudy(o)
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Geomean <= 0 {
			t.Fatalf("%s gain %v", p.Label, p.Geomean)
		}
	}
	if res.Table().NumRows() != 2 {
		t.Fatal("table rows")
	}
}

func TestExtendedComparisonShape(t *testing.T) {
	o := Options{Budget: 150_000, Seed: 1, MixLimit: 1}
	res := ExtendedComparison(2, o)
	if res.Baseline != "LRU" || len(res.Points) != 10 {
		t.Fatalf("baseline %q, %d points", res.Baseline, len(res.Points))
	}
	for _, p := range res.Points {
		if p.Geomean <= 0 {
			t.Fatalf("%s geomean %v", p.Label, p.Geomean)
		}
	}
	if res.Table().NumRows() != 11 {
		t.Fatal("table rows")
	}
}

func TestAdaptiveStudyShape(t *testing.T) {
	o := Options{Budget: 200_000, Seed: 1, MixLimit: 1}
	res := AdaptiveStudy(o)
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Geomean <= 0 {
			t.Fatalf("%s gain %v", p.Label, p.Geomean)
		}
	}
	if res.Table().NumRows() != 2 {
		t.Fatal("table rows")
	}
}

func TestProfileAdvisorSweepShape(t *testing.T) {
	o := quickOpts()
	o.Budget = 100_000
	res := ProfileAdvisorSweep(o)
	if res == nil || len(res.Points) != 2 {
		t.Fatalf("advisor sweep returned %+v", res)
	}
	if res.Column == "" {
		t.Error("advisor sweep must override the table column header")
	}
	for _, p := range res.Points {
		// The even split is in the search space, so the best static
		// partition can never predict worse than it.
		if p.Geomean < 1 {
			t.Errorf("%s: best/even ratio %.4f < 1", p.Label, p.Geomean)
		}
		if !strings.Contains(p.Label, "best=") || !strings.Contains(p.Label, "D*=") {
			t.Errorf("label does not name the answers: %q", p.Label)
		}
	}
	if res.Table().NumRows() != len(res.Points) {
		t.Fatal("table rows mismatch")
	}
}
