package mrc

// The reference advisor: the model as it was evaluated before the
// searches were table-driven. Every candidate is a full Prediction
// computed from the profile directly, the hit curves are re-summed at
// every lookup, and the NUcache candidate set is rebuilt for every
// split. The differential tests hold Predict, BestPartition and
// BestDeliWays to byte-identical answers against it. corePrediction
// and clampCount are shared with the package: the tables feed them the
// same inputs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"nucache/internal/core"
	"nucache/internal/policy"
	"nucache/internal/stats"
)

// RefPredict is Predict with every evaluation computed from the
// profile directly.
func RefPredict(p *Profile, w WhatIf) (*Prediction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch strings.ToLower(w.Policy) {
	case PolicyPart:
		alloc := w.Alloc
		if len(alloc) == 0 {
			alloc = policy.EvenSplit(p.Cores, p.Ways)
		}
		if err := policy.CheckSplit(alloc, p.Cores, p.Ways); err != nil {
			return nil, fmt.Errorf("mrc: %w", err)
		}
		return refPredictPart(p, alloc), nil
	case PolicyLRU:
		return refPredictShared(p, PolicyLRU, 0), nil
	case PolicyNUcache:
		if w.DeliWays < 0 || w.DeliWays >= p.Ways {
			return nil, fmt.Errorf("mrc: deliways %d out of range", w.DeliWays)
		}
		return refPredictShared(p, PolicyNUcache, w.DeliWays), nil
	default:
		return nil, fmt.Errorf("mrc: unknown model policy %q", w.Policy)
	}
}

// refPredictPart is the exact path: partition ≡ private LRU per core, so
// hit counts are ATD prefix sums and cycles recompose the replay
// engine's timing identity (policy-independent cycles + per-access LLC
// latency + per-demand-miss memory latency).
func refPredictPart(p *Profile, alloc []int) *Prediction {
	pred := &Prediction{
		Policy:      PolicyPart,
		Alloc:       append([]int(nil), alloc...),
		HitsExact:   true,
		CyclesExact: !p.DRAM,
		PerCore:     make([]CorePrediction, p.Cores),
		Evaluated:   1,
	}
	for i := range p.PerCore {
		c := &p.PerCore[i]
		var hits, demandHits uint64
		for w := 0; w < alloc[i]; w++ {
			hits += c.PosHits[w]
			demandHits += c.DemandPosHits[w]
		}
		pred.PerCore[i] = corePrediction(p, i, float64(alloc[i]), hits, demandHits)
	}
	refFinish(p, pred)
	return pred
}

// refPredictShared is the composed path for shared LRU and NUcache: an
// effective-ways fixed point (each core's steady-state occupancy is
// proportional to its insertion — miss — rate) splits the shared
// capacity, the per-core curves are interpolated at that share, and
// for NUcache the profiled next-use histograms add the retention
// benefit of the chosen delinquent PCs.
func refPredictShared(p *Profile, polName string, deliWays int) *Prediction {
	pred := &Prediction{
		Policy:    polName,
		DeliWays:  deliWays,
		PerCore:   make([]CorePrediction, p.Cores),
		Evaluated: 1,
	}
	benefit := make([]float64, p.Cores)
	mainWays := p.Ways
	if deliWays > 0 {
		chosenBenefit, ok := refNucacheBenefit(p, deliWays, benefit)
		if ok && chosenBenefit > 0 {
			mainWays = p.Ways - deliWays
		} else {
			// Nothing worth retaining: the policy falls back to using
			// the whole set as MainWays, i.e. plain shared LRU.
			for i := range benefit {
				benefit[i] = 0
			}
		}
	}
	eff := refEffectiveWays(p, float64(mainWays))
	for i := range p.PerCore {
		c := &p.PerCore[i]
		hits := refCurveAt(c.PosHits, eff[i]) + benefit[i]
		demandHits := refCurveAt(c.DemandPosHits, eff[i])
		if c.Accesses > 0 {
			// Attribute retention hits to the demand curve in the same
			// proportion they appear in the overall stream.
			demandHits += benefit[i] * float64(c.DemandAccesses) / float64(c.Accesses)
		}
		pred.PerCore[i] = corePrediction(p, i, eff[i],
			clampCount(hits, c.Accesses), clampCount(demandHits, c.DemandAccesses))
	}
	refFinish(p, pred)
	return pred
}

// refNucacheBenefit runs the paper's cost-benefit selection on the merged
// candidate set (the live policy keeps one monitor over core-tagged
// PCs) and attributes each chosen PC's projected extra hits to its
// core. Returns the total benefit and whether any PC was chosen.
func refNucacheBenefit(p *Profile, deliWays int, out []float64) (float64, bool) {
	var cands []*core.PCStats
	owner := make(map[uint64]int)
	var sampledMisses uint64
	for i := range p.PerCore {
		c := &p.PerCore[i]
		sampledMisses += c.SampledMisses
		for j := range c.PCs {
			pc := &c.PCs[j]
			h, err := stats.HistogramFromCounts(p.HistLinear, p.HistLog2, pc.NextUseCounts, pc.NextUseSum)
			if err != nil {
				continue // unreachable on validated profiles
			}
			cands = append(cands, &core.PCStats{
				PC: pc.PC, Misses: pc.Misses, Demotions: pc.Demotions, NextUse: h,
			})
			owner[pc.PC] = i
		}
	}
	monCfg := core.DefaultConfig(p.Ways)
	chosen, report := core.SelectPCs(cands, deliWays, sampledMisses, monCfg.Candidates, monCfg.LifetimeSlack)
	if len(chosen) == 0 {
		return 0, false
	}
	chosenSet := make(map[uint64]bool, len(chosen))
	for _, pc := range chosen {
		chosenSet[pc] = true
	}
	var total float64
	for _, cand := range cands {
		if !chosenSet[cand.PC] {
			continue
		}
		b := float64(cand.NextUse.CountAtMost(report.Lifetime))
		out[owner[cand.PC]] += b
		total += b
	}
	return total, true
}

// refEffectiveWays solves the shared-LRU occupancy fixed point: each
// core's share of the capacity is proportional to its insertion rate
// (its miss rate at its own share), damped to convergence.
func refEffectiveWays(p *Profile, capacity float64) []float64 {
	n := p.Cores
	eff := make([]float64, n)
	for i := range eff {
		eff[i] = capacity / float64(n)
	}
	miss := make([]float64, n)
	for iter := 0; iter < 100; iter++ {
		var total float64
		for i := range p.PerCore {
			c := &p.PerCore[i]
			m := float64(c.Accesses) - refCurveAt(c.PosHits, eff[i])
			if m < 0 {
				m = 0
			}
			miss[i] = m
			total += m
		}
		if total <= 0 {
			return eff
		}
		for i := range eff {
			target := capacity * miss[i] / total
			eff[i] = 0.5*eff[i] + 0.5*target
		}
	}
	return eff
}

// refCurveAt linearly interpolates the cumulative hit curve at a
// fractional way count (H(0)=0, H(k)=sum of the first k positions).
func refCurveAt(posHits []uint64, ways float64) float64 {
	if ways <= 0 {
		return 0
	}
	if ways >= float64(len(posHits)) {
		var sum uint64
		for _, h := range posHits {
			sum += h
		}
		return float64(sum)
	}
	k := int(ways)
	var sum uint64
	for i := 0; i < k; i++ {
		sum += posHits[i]
	}
	return float64(sum) + (ways-float64(k))*float64(posHits[k])
}

func refFinish(p *Profile, pred *Prediction) {
	var accesses, misses uint64
	for i := range pred.PerCore {
		accesses += pred.PerCore[i].Accesses
		misses += pred.PerCore[i].Misses
		pred.Throughput += pred.PerCore[i].IPC
	}
	if accesses > 0 {
		pred.MissRate = float64(misses) / float64(accesses)
	}
}

// RefBestPartition searches the static-partition space for the maximum
// summed IPC, exhaustively over all compositions of Ways into Cores
// positive parts (C(15,3)=455 for a 4-core 16-way LLC; Validate's
// bound on ways bounds the count). Deterministic: ties keep the
// lexicographically smallest allocation.
func RefBestPartition(p *Profile) (*Prediction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var best *Prediction
	evaluated := 0
	alloc := make([]int, p.Cores)
	var walk func(core, remaining int)
	walk = func(core, remaining int) {
		if core == p.Cores-1 {
			alloc[core] = remaining
			pred := refPredictPart(p, alloc)
			evaluated++
			if best == nil || pred.Throughput > best.Throughput {
				best = pred
			}
			return
		}
		for a := 1; a <= remaining-(p.Cores-1-core); a++ {
			alloc[core] = a
			walk(core+1, remaining-a)
		}
	}
	walk(0, p.Ways)
	best.Evaluated = evaluated
	return best, nil
}

// RefBestDeliWays searches the NUcache split space (D = 0..Ways-1) for
// the maximum summed IPC.
func RefBestDeliWays(p *Profile) (*Prediction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var best *Prediction
	for d := 0; d <= p.Ways-1; d++ {
		pred := refPredictShared(p, PolicyNUcache, d)
		if best == nil || pred.Throughput > best.Throughput {
			best = pred
		}
	}
	best.Evaluated = p.Ways
	return best, nil
}

// CheckAgainstReference runs both searches and a spread of direct
// what-ifs on p (even and skewed partitions, shared LRU, NUcache across
// its splits, no DeliWays and out-of-range ones included), failing t where an
// answer differs from the reference's: a different error state or, as
// JSON, different bytes.
func CheckAgainstReference(t *testing.T, label string, p *Profile) {
	t.Helper()
	check := func(what string, got, want *Prediction, gotErr, wantErr error) {
		t.Helper()
		if gotErr != nil || wantErr != nil {
			if (gotErr == nil) != (wantErr == nil) {
				t.Errorf("%s %s: error %v, reference error %v", label, what, gotErr, wantErr)
			}
			return
		}
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s %s: answer differs from the reference\n--- reference ---\n%s\n--- got ---\n%s",
				label, what, w, g)
		}
	}
	got, err := BestPartition(p)
	want, refErr := RefBestPartition(p)
	check("BestPartition", got, want, err, refErr)
	got, err = BestDeliWays(p)
	want, refErr = RefBestDeliWays(p)
	check("BestDeliWays", got, want, err, refErr)

	whatIfs := []WhatIf{{Policy: PolicyPart}, {Policy: PolicyLRU}}
	skewed := make([]int, p.Cores)
	for i := range skewed {
		skewed[i] = 1
	}
	skewed[0] += p.Ways - p.Cores
	tail := slices.Clone(skewed)
	tail[0], tail[p.Cores-1] = tail[p.Cores-1], tail[0]
	whatIfs = append(whatIfs, WhatIf{Policy: PolicyPart, Alloc: skewed}, WhatIf{Policy: PolicyPart, Alloc: tail})
	for _, d := range []int{-1, 0, 1, 2, 4, 6, 8, p.Ways - 1, p.Ways, p.Ways + 3} {
		whatIfs = append(whatIfs, WhatIf{Policy: PolicyNUcache, DeliWays: d})
	}
	for _, w := range whatIfs {
		got, err := Predict(p, w)
		want, refErr := RefPredict(p, w)
		check(fmt.Sprintf("Predict %+v", w), got, want, err, refErr)
	}
}

// TestSearchesMatchReferenceOnEdgeShapes covers the shapes the table
// indexing has edges at: one core, as many cores as ways, the widest
// search (8 cores over 16 ways), and cores with no LLC accesses.
func TestSearchesMatchReferenceOnEdgeShapes(t *testing.T) {
	CheckAgainstReference(t, "seed", fuzzProfile())
	for _, c := range []struct{ cores, ways int }{{1, 1}, {1, 16}, {2, 2}, {4, 16}, {8, 16}, {16, 16}} {
		p := shapedProfile(c.cores, c.ways)
		for i := range p.PerCore {
			pc := &p.PerCore[i]
			for w := range pc.PosHits {
				pc.PosHits[w] = uint64((i + 1) * (c.ways - w))
				pc.DemandPosHits[w] = pc.PosHits[w] / 2
			}
			pc.Accesses, pc.DemandAccesses = 10_000, 5_000
		}
		CheckAgainstReference(t, fmt.Sprintf("%dx%d", c.cores, c.ways), p)

		idle := shapedProfile(c.cores, c.ways)
		for i := range idle.PerCore {
			idle.PerCore[i].Accesses, idle.PerCore[i].DemandAccesses = 0, 0
		}
		CheckAgainstReference(t, fmt.Sprintf("%dx%d idle", c.cores, c.ways), idle)
	}
}
