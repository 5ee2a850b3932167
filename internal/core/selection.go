package core

import (
	"math"
	"sort"
)

// The cost-benefit PC selection. Retained lines drain through the D
// per-set DeliWays at the rate the chosen PCs demote lines, so choosing a
// set S of PCs gives every retained line an extra lifetime of
//
//	lifetime(S) = D * sampledMisses / demotions(S)   [per-set misses]
//
// (per-set quantities cancel because both the miss counter and the
// demotion counter are summed over the same sampled sets). The expected
// extra hits are the retained lines whose next-use distance fits:
//
//	benefit(S) = Σ_{p∈S} |{lines of p : nextUse <= lifetime(S)}|
//
// Adding a PC to S contributes its own short-distance lines but shrinks
// everyone's lifetime. The selection orders candidates by ascending mean
// next-use distance — cheapest to hold first — and evaluates every prefix,
// keeping the best. This evaluates exactly the paper's trade-off with
// O(N²) histogram queries for N candidates (N ≤ 32 by default).

// SelectionReport captures the outcome of one selection for logs/tests.
type SelectionReport struct {
	// Epoch is the 1-based epoch number.
	Epoch int
	// Candidates is how many PCs were considered.
	Candidates int
	// Chosen is the selected PC count.
	Chosen int
	// DeliWays is the split the selection ran for (fixed-configuration
	// NUcache always reports the configured D; adaptive mode reports the
	// chosen D).
	DeliWays int
	// Lifetime is the projected DeliWays lifetime (per-set misses).
	Lifetime uint64
	// Benefit is the projected extra hits for the epoch.
	Benefit uint64
	// SampledMisses is the epoch's sampled miss volume.
	SampledMisses uint64
}

// SelectPCs runs the cost-benefit analysis and returns the chosen PC set
// as a slice sorted ascending (the policy's hot path searches it).
// slack scales the projected lifetime before comparing against observed
// distances (slack <= 0 selects the default of 1). Values above 1 model
// burstiness optimism — lines demoted late in a burst survive longer than
// the average drain rate suggests — but empirically over-select PCs and
// flood the FIFO, so the default stays at the exact rate model.
func SelectPCs(cands []*PCStats, deliWays int, sampledMisses uint64, maxChosen int, slack float64) ([]uint64, SelectionReport) {
	if slack <= 0 {
		slack = 1
	}
	report := SelectionReport{Candidates: len(cands), SampledMisses: sampledMisses}
	if deliWays == 0 || len(cands) == 0 || sampledMisses == 0 {
		return nil, report
	}

	// Only PCs whose lines actually flow through the MainWays can use the
	// DeliWays; PCs with no observed reuse can only pollute.
	useful := make([]*PCStats, 0, len(cands))
	for _, c := range cands {
		if c.Demotions > 0 && c.NextUse.Total() > 0 {
			useful = append(useful, c)
		}
	}
	if len(useful) == 0 {
		return nil, report
	}
	sort.Slice(useful, func(i, j int) bool {
		mi, mj := useful[i].NextUse.Mean(), useful[j].NextUse.Mean()
		if mi != mj {
			return mi < mj
		}
		// Equal distances: prefer the PC that consumes DeliWays slower.
		if useful[i].Demotions != useful[j].Demotions {
			return useful[i].Demotions < useful[j].Demotions
		}
		return useful[i].PC < useful[j].PC
	})
	if len(useful) > maxChosen {
		useful = useful[:maxChosen]
	}

	bestK, bestBenefit, bestLifetime := bestPrefix(useful, deliWays, sampledMisses, slack)
	chosen := make([]uint64, 0, bestK)
	for i := 0; i < bestK; i++ {
		chosen = append(chosen, useful[i].PC)
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i] < chosen[j] })
	report.Chosen = bestK
	report.DeliWays = deliWays
	report.Benefit = bestBenefit
	report.Lifetime = bestLifetime
	return chosen, report
}

// bestPrefix evaluates every prefix of the (cheapest-first) candidate
// ordering for a fixed D and returns the best (k, benefit, lifetime).
func bestPrefix(useful []*PCStats, deliWays int, sampledMisses uint64, slack float64) (int, uint64, uint64) {
	bestK, bestBenefit, bestLifetime := 0, uint64(0), uint64(0)
	var demotions uint64
	for k := 1; k <= len(useful); k++ {
		demotions += useful[k-1].Demotions
		lifetime := scaleLifetime(lifetimeFor(deliWays, sampledMisses, demotions), slack)
		var benefit uint64
		for i := 0; i < k; i++ {
			benefit += useful[i].NextUse.CountAtMost(lifetime)
		}
		if benefit > bestBenefit {
			bestK, bestBenefit, bestLifetime = k, benefit, lifetime
		}
	}
	return bestK, bestBenefit, bestLifetime
}

// SelectPCsAdaptive extends the cost-benefit analysis to choose the
// MainWays/DeliWays split too (the paper's design fixes D at design time;
// this is the natural "future work" extension — the same histograms
// answer the question for every D). Candidate splits are every even D up
// to maxDeliWays, and the split with the largest retention benefit wins
// (the smallest D on a tie). The benefit is not discounted for the
// recency hits a smaller MainWays loses.
func SelectPCsAdaptive(cands []*PCStats, maxDeliWays int, sampledMisses uint64, maxChosen int, slack float64) ([]uint64, SelectionReport) {
	best := SelectionReport{Candidates: len(cands), SampledMisses: sampledMisses}
	var bestChosen []uint64
	for d := 2; d <= maxDeliWays; d += 2 {
		chosen, rep := SelectPCs(cands, d, sampledMisses, maxChosen, slack)
		if len(chosen) > 0 && rep.Benefit > best.Benefit {
			best = rep
			bestChosen = chosen
		}
	}
	if best.DeliWays == 0 {
		// Nothing profitable at any split: empty selection, D irrelevant.
		best.Candidates = len(cands)
		best.SampledMisses = sampledMisses
	}
	return bestChosen, best
}

// lifetimeFor computes D * sampledMisses / demotions, saturating instead
// of overflowing and treating zero demotions as unbounded lifetime.
func lifetimeFor(deliWays int, sampledMisses, demotions uint64) uint64 {
	if demotions == 0 {
		return math.MaxUint64
	}
	d := uint64(deliWays)
	if sampledMisses > math.MaxUint64/d {
		return math.MaxUint64
	}
	return d * sampledMisses / demotions
}

// scaleLifetime multiplies a lifetime by the slack factor, saturating.
func scaleLifetime(lifetime uint64, slack float64) uint64 {
	if lifetime == math.MaxUint64 {
		return lifetime
	}
	scaled := float64(lifetime) * slack
	if scaled >= math.MaxUint64 {
		return math.MaxUint64
	}
	return uint64(scaled)
}
