package mrc

import (
	"fmt"
	"math"
	"strings"

	"nucache/internal/core"
	"nucache/internal/policy"
	"nucache/internal/stats"
)

// Model policies the advisor evaluates.
const (
	PolicyPart    = "part"    // static way partition (exact)
	PolicyLRU     = "lru"     // shared LRU (effective-ways composition)
	PolicyNUcache = "nucache" // NUcache DeliWays split (composition + cost-benefit)
)

// WhatIf is one allocation question against a profile.
type WhatIf struct {
	// Policy selects the model: "part", "lru" or "nucache".
	Policy string
	// Alloc is the per-core way allocation for "part" (empty = even
	// split).
	Alloc []int
	// DeliWays is the MainWays/DeliWays split for "nucache" (0 = the
	// paper's default of 6, clamped to ways-1; negative = no DeliWays,
	// i.e. plain shared LRU with the NUcache label).
	DeliWays int
}

// CorePrediction is the model's answer for one core.
type CorePrediction struct {
	Core      int    `json:"core"`
	Benchmark string `json:"benchmark"`
	// Ways is the capacity the model granted this core: the exact
	// partition share for "part", the effective-ways fixed point for
	// the shared models.
	Ways         float64 `json:"ways"`
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	Accesses     uint64  `json:"accesses"`
	DemandMisses uint64  `json:"demand_misses"`
	MissRate     float64 `json:"miss_rate"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`
}

// Prediction is the model's answer for one what-if.
type Prediction struct {
	Policy   string `json:"policy"`
	Alloc    []int  `json:"alloc,omitempty"`
	DeliWays int    `json:"deliways,omitempty"`
	// HitsExact reports that per-core hit/miss counts are exact (static
	// partitions); CyclesExact that cycles and IPC are too (static
	// partitions under flat memory).
	HitsExact   bool             `json:"hits_exact"`
	CyclesExact bool             `json:"cycles_exact"`
	PerCore     []CorePrediction `json:"per_core"`
	// MissRate is the aggregate LLC miss rate; Throughput the summed
	// IPC (the search objective).
	MissRate   float64 `json:"miss_rate"`
	Throughput float64 `json:"throughput"`
	// Evaluated counts model evaluations behind this answer (1 for a
	// direct what-if, the search-space size for "best" answers).
	Evaluated int `json:"evaluated"`
}

// Predict answers one what-if from a validated profile. It is pure
// table math over the profiled curves — microseconds, no simulation.
func Predict(p *Profile, w WhatIf) (*Prediction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch strings.ToLower(w.Policy) {
	case PolicyPart, "":
		alloc := w.Alloc
		if len(alloc) == 0 {
			alloc = policy.EvenSplit(p.Cores, p.Ways)
		}
		if err := policy.CheckSplit(alloc, p.Cores, p.Ways); err != nil {
			return nil, fmt.Errorf("mrc: %w", err)
		}
		return predictPart(p, alloc), nil
	case PolicyLRU:
		return predictShared(p, PolicyLRU, 0), nil
	case PolicyNUcache:
		d := w.DeliWays
		switch {
		case d < 0:
			d = 0
		case d == 0:
			d = core.DefaultDeliWays
		}
		if d > p.Ways-1 {
			d = p.Ways - 1
		}
		return predictShared(p, PolicyNUcache, d), nil
	default:
		return nil, fmt.Errorf("mrc: unknown model policy %q", w.Policy)
	}
}

// predictPart is the exact path: partition ≡ private LRU per core, so
// hit counts are ATD prefix sums and cycles recompose the replay
// engine's timing identity (policy-independent cycles + per-access LLC
// latency + per-demand-miss memory latency).
func predictPart(p *Profile, alloc []int) *Prediction {
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
	finish(p, pred)
	return pred
}

// predictShared is the composed path for shared LRU and NUcache: an
// effective-ways fixed point (each core's steady-state occupancy is
// proportional to its insertion — miss — rate) splits the shared
// capacity, the per-core curves are interpolated at that share, and
// for NUcache the profiled next-use histograms add the retention
// benefit of the chosen delinquent PCs.
func predictShared(p *Profile, polName string, deliWays int) *Prediction {
	pred := &Prediction{
		Policy:    polName,
		DeliWays:  deliWays,
		PerCore:   make([]CorePrediction, p.Cores),
		Evaluated: 1,
	}
	benefit := make([]float64, p.Cores)
	mainWays := p.Ways
	if deliWays > 0 {
		chosenBenefit, ok := nucacheBenefit(p, deliWays, benefit)
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
	eff := effectiveWays(p, float64(mainWays))
	for i := range p.PerCore {
		c := &p.PerCore[i]
		hits := curveAt(c.PosHits, eff[i]) + benefit[i]
		demandHits := curveAt(c.DemandPosHits, eff[i])
		if c.Accesses > 0 {
			// Attribute retention hits to the demand curve in the same
			// proportion they appear in the overall stream.
			demandHits += benefit[i] * float64(c.DemandAccesses) / float64(c.Accesses)
		}
		pred.PerCore[i] = corePrediction(p, i, eff[i],
			clampCount(hits, c.Accesses), clampCount(demandHits, c.DemandAccesses))
	}
	finish(p, pred)
	return pred
}

// nucacheBenefit runs the paper's cost-benefit selection on the merged
// candidate set (the live policy keeps one monitor over core-tagged
// PCs) and attributes each chosen PC's projected extra hits to its
// core. Returns the total benefit and whether any PC was chosen.
func nucacheBenefit(p *Profile, deliWays int, out []float64) (float64, bool) {
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

// effectiveWays solves the shared-LRU occupancy fixed point: each
// core's share of the capacity is proportional to its insertion rate
// (its miss rate at its own share), damped to convergence.
func effectiveWays(p *Profile, capacity float64) []float64 {
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
			m := float64(c.Accesses) - curveAt(c.PosHits, eff[i])
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

// curveAt linearly interpolates the cumulative hit curve at a
// fractional way count (H(0)=0, H(k)=sum of the first k positions).
func curveAt(posHits []uint64, ways float64) float64 {
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

func clampCount(v float64, limit uint64) uint64 {
	if v <= 0 {
		return 0
	}
	n := uint64(math.Round(v))
	if n > limit {
		return limit
	}
	return n
}

// corePrediction assembles one core's numbers from its hit counts via
// the replay timing identity.
func corePrediction(p *Profile, i int, ways float64, hits, demandHits uint64) CorePrediction {
	c := &p.PerCore[i]
	demandMisses := c.DemandAccesses - demandHits
	cycles := c.PICycles + c.DemandAccesses*p.LLCLatency + demandMisses*p.MemLatency
	cp := CorePrediction{
		Core:         i,
		Benchmark:    c.Benchmark,
		Ways:         ways,
		Hits:         hits,
		Misses:       c.Accesses - hits,
		Accesses:     c.Accesses,
		DemandMisses: demandMisses,
		Cycles:       cycles,
		Instructions: c.Instructions,
	}
	if c.Accesses > 0 {
		cp.MissRate = float64(cp.Misses) / float64(c.Accesses)
	}
	if cycles > 0 {
		cp.IPC = float64(c.Instructions) / float64(cycles)
	}
	return cp
}

func finish(p *Profile, pred *Prediction) {
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

// BestPartition searches the static-partition space for the maximum
// summed IPC, exhaustively over all compositions of Ways into Cores
// positive parts (C(15,3)=455 for a 4-core 16-way LLC; Validate's
// bound on ways bounds the count). Deterministic: ties keep the lexicographically smallest
// allocation.
func BestPartition(p *Profile) (*Prediction, error) {
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
			pred := predictPart(p, alloc)
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

// BestDeliWays searches the NUcache split space (D = 0..Ways-1) for
// the maximum summed IPC.
func BestDeliWays(p *Profile) (*Prediction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var best *Prediction
	for d := 0; d <= p.Ways-1; d++ {
		pred := predictShared(p, PolicyNUcache, d)
		if best == nil || pred.Throughput > best.Throughput {
			best = pred
		}
	}
	best.Evaluated = p.Ways
	return best, nil
}
