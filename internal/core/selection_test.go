package core

import (
	"testing"
	"testing/quick"

	"nucache/internal/stats"
)

// contains reports whether the sorted chosen slice includes pc.
func contains(chosen []uint64, pc uint64) bool {
	for _, v := range chosen {
		if v == pc {
			return true
		}
	}
	return false
}

func candidate(pc uint64, misses, demotions uint64, distances []uint64) *PCStats {
	h := stats.NewHistogram(16, 16)
	for _, d := range distances {
		h.Record(d)
	}
	return &PCStats{PC: pc, Misses: misses, Demotions: demotions, NextUse: h}
}

func TestSelectPCsPicksShortDistancePC(t *testing.T) {
	// PC 1: reuses at distance 2 — easily covered by DeliWays.
	// PC 2: reuses at distance 5000 — hopeless.
	cands := []*PCStats{
		candidate(1, 100, 50, repeat(2, 50)),
		candidate(2, 100, 50, repeat(5000, 50)),
	}
	chosen, rep := SelectPCs(cands, 4, 1000, 8, 1)
	if !contains(chosen, 1) {
		t.Fatalf("PC 1 not chosen (report %+v)", rep)
	}
	if contains(chosen, 2) {
		t.Fatal("hopeless PC 2 chosen")
	}
	if rep.Chosen != 1 || rep.Benefit == 0 {
		t.Fatalf("report %+v", rep)
	}
}

func TestSelectPCsDilutionTradeoff(t *testing.T) {
	// With D=2 and sampledMisses=100: lifetime(S) = 200/demotions(S).
	// PC 1: 10 demotions, reuse at 15 -> alone lifetime 20: covered.
	// PC 2: 90 demotions, reuse at 15 -> together lifetime 2: nothing
	// covered, and PC 2 alone gives lifetime 200/90≈2: not covered.
	// Selection must choose exactly {PC 1}.
	cands := []*PCStats{
		candidate(1, 50, 10, repeat(15, 10)),
		candidate(2, 500, 90, repeat(15, 90)),
	}
	chosen, rep := SelectPCs(cands, 2, 100, 8, 1)
	if len(chosen) != 1 {
		t.Fatalf("chose %d PCs (report %+v)", len(chosen), rep)
	}
	if !contains(chosen, 1) {
		t.Fatal("wrong PC survived dilution analysis")
	}
}

func TestSelectPCsPrefersBiggerSetWhenItFits(t *testing.T) {
	// Two cheap PCs both fit together: choose both.
	cands := []*PCStats{
		candidate(1, 100, 10, repeat(3, 10)),
		candidate(2, 100, 10, repeat(4, 10)),
	}
	chosen, _ := SelectPCs(cands, 4, 1000, 8, 1)
	if len(chosen) != 2 {
		t.Fatalf("chose %d PCs, want 2", len(chosen))
	}
}

func TestSelectPCsEmptyInputs(t *testing.T) {
	if chosen, _ := SelectPCs(nil, 4, 100, 8, 1); len(chosen) != 0 {
		t.Fatal("chose from nothing")
	}
	if chosen, _ := SelectPCs([]*PCStats{candidate(1, 5, 5, repeat(1, 5))}, 0, 100, 8, 1); len(chosen) != 0 {
		t.Fatal("chose with zero DeliWays")
	}
	if chosen, _ := SelectPCs([]*PCStats{candidate(1, 5, 5, repeat(1, 5))}, 4, 0, 8, 1); len(chosen) != 0 {
		t.Fatal("chose with zero sampled misses")
	}
	// PC with misses but no demotions/reuse is not choosable.
	if chosen, _ := SelectPCs([]*PCStats{candidate(1, 5, 0, nil)}, 4, 100, 8, 1); len(chosen) != 0 {
		t.Fatal("chose PC with no demotions")
	}
}

func TestSelectPCsRespectsMaxChosen(t *testing.T) {
	var cands []*PCStats
	for pc := uint64(1); pc <= 6; pc++ {
		cands = append(cands, candidate(pc, 100, 5, repeat(2, 5)))
	}
	chosen, _ := SelectPCs(cands, 8, 10000, 3, 1)
	if len(chosen) > 3 {
		t.Fatalf("chose %d > MaxChosen 3", len(chosen))
	}
}

func TestLifetimeForSaturation(t *testing.T) {
	if got := lifetimeFor(4, 100, 0); got != ^uint64(0) {
		t.Fatalf("zero demotions lifetime = %d", got)
	}
	if got := lifetimeFor(16, ^uint64(0)/2, 1); got != ^uint64(0) {
		t.Fatalf("overflow not saturated: %d", got)
	}
	if got := lifetimeFor(2, 100, 10); got != 20 {
		t.Fatalf("lifetime = %d, want 20", got)
	}
}

func repeat(v uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestScaleLifetime(t *testing.T) {
	if got := scaleLifetime(10, 2); got != 20 {
		t.Fatalf("scaled = %d", got)
	}
	if got := scaleLifetime(^uint64(0), 2); got != ^uint64(0) {
		t.Fatal("max lifetime not preserved")
	}
	if got := scaleLifetime(^uint64(0)/2, 8); got != ^uint64(0) {
		t.Fatal("overflow not saturated")
	}
}

func TestSelectPCsSlackWidensCoverage(t *testing.T) {
	// Distance 30 with raw lifetime 20: rejected at slack 1, accepted at 2.
	cands := []*PCStats{candidate(1, 50, 10, repeat(30, 10))}
	if chosen, _ := SelectPCs(cands, 2, 100, 8, 1); len(chosen) != 0 {
		t.Fatal("slack-1 selection accepted uncoverable PC")
	}
	if chosen, _ := SelectPCs(cands, 2, 100, 8, 2); len(chosen) != 1 {
		t.Fatal("slack-2 selection rejected coverable PC")
	}
	// slack <= 0 falls back to the default of 1 (exact rate model).
	if chosen, _ := SelectPCs(cands, 2, 100, 8, 0); len(chosen) != 0 {
		t.Fatal("default slack not applied")
	}
}

func TestSelectPCsProperties(t *testing.T) {
	// Property: for arbitrary candidate populations, the selection (a) only
	// chooses from the candidates, (b) respects maxChosen, (c) reports a
	// chosen count matching the set, and (d) is deterministic.
	if err := quick.Check(func(raw []struct {
		PC        uint16
		Misses    uint16
		Demotions uint8
		Dist      uint16
	}, deliWays8, maxChosen8 uint8) bool {
		deliWays := int(deliWays8%8) + 1
		maxChosen := int(maxChosen8%8) + 1
		var cands []*PCStats
		seen := map[uint64]bool{}
		var sampled uint64
		for _, r := range raw {
			pc := uint64(r.PC)
			if seen[pc] {
				continue
			}
			seen[pc] = true
			n := int(r.Demotions)
			var dists []uint64
			for i := 0; i < n; i++ {
				dists = append(dists, uint64(r.Dist%512))
			}
			cands = append(cands, candidate(pc, uint64(r.Misses), uint64(n), dists))
			sampled += uint64(r.Misses)
		}
		chosen1, rep1 := SelectPCs(cands, deliWays, sampled, maxChosen, 1)
		chosen2, rep2 := SelectPCs(cands, deliWays, sampled, maxChosen, 1)
		if len(chosen1) != len(chosen2) || rep1 != rep2 {
			return false // nondeterministic
		}
		if len(chosen1) > maxChosen {
			return false
		}
		if rep1.Chosen != len(chosen1) {
			return false
		}
		for i, pc := range chosen1 {
			if !seen[pc] {
				return false // invented a PC
			}
			if i > 0 && chosen1[i-1] >= pc {
				return false // not sorted ascending / has duplicates
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectPCsBenefitRequiresCoverage(t *testing.T) {
	// A candidate whose every distance exceeds any possible lifetime must
	// never be chosen, regardless of how delinquent it is.
	cands := []*PCStats{candidate(1, 1<<20, 1000, repeat(1<<30, 1000))}
	chosen, rep := SelectPCs(cands, 8, 1000, 8, 1)
	if len(chosen) != 0 || rep.Benefit != 0 {
		t.Fatalf("uncoverable PC chosen: %v %+v", chosen, rep)
	}
}

func TestSelectPCsAdaptivePicksWorkingSplit(t *testing.T) {
	// Distances of ~40 need D >= 4 at this miss/demotion ratio
	// (lifetime(D) = D*1000/100): D=2 gives 20 (no benefit), D=4 gives 40.
	cands := []*PCStats{candidate(1, 500, 100, repeat(40, 100))}
	chosen, rep := SelectPCsAdaptive(cands, 8, 1000, 8, 1)
	if len(chosen) != 1 {
		t.Fatalf("chosen %v (report %+v)", chosen, rep)
	}
	if rep.DeliWays < 4 {
		t.Fatalf("picked D=%d, need >= 4", rep.DeliWays)
	}
	if rep.Benefit == 0 {
		t.Fatal("no benefit reported")
	}
}

func TestSelectPCsAdaptiveEmptyWhenNothingFits(t *testing.T) {
	cands := []*PCStats{candidate(1, 500, 100, repeat(1<<20, 100))}
	chosen, rep := SelectPCsAdaptive(cands, 8, 1000, 8, 1)
	if len(chosen) != 0 || rep.Chosen != 0 {
		t.Fatalf("uncoverable PC chosen: %+v", rep)
	}
}
