package mrc

import (
	"fmt"
	"math"
	"slices"
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
	// DeliWays is the literal DeliWays split for "nucache", in [0,
	// Ways): 0 means no DeliWays, i.e. plain shared LRU with the
	// NUcache label.
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

// Predict answers one literal what-if from a validated profile, or an
// error for a model it does not know or a split or allocation the LLC
// cannot hold; it maps no defaults. It is pure table math over the
// profiled curves — microseconds, no simulation.
func Predict(p *Profile, w WhatIf) (*Prediction, error) {
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
		return predictPart(p, alloc), nil
	case PolicyLRU:
		return newSharedModel(p).predict(PolicyLRU, 0), nil
	case PolicyNUcache:
		if w.DeliWays < 0 || w.DeliWays >= p.Ways {
			return nil, fmt.Errorf("mrc: deliways %d outside [0, %d)", w.DeliWays, p.Ways)
		}
		return newSharedModel(p).predict(PolicyNUcache, w.DeliWays), nil
	default:
		return nil, fmt.Errorf("mrc: unknown model policy %q", w.Policy)
	}
}

// sharedModel is a validated profile plus the tables the shared-LLC
// evaluations read, derived once so that BestDeliWays scores each split
// by lookups.
type sharedModel struct {
	p *Profile
	// stride is Ways+1. hits[i*stride+a] is core i's cumulative hit
	// count with a ways (a = 0..Ways), the prefix sum of its PosHits;
	// demand is the same over DemandPosHits.
	stride       int
	hits, demand []uint64
	// nu is the merged NUcache candidate set, built on first use.
	nu *candidateSet
}

// candidateSet is the NUcache cost-benefit input: every core's profiled
// PCs as one merged set (the live policy keeps one monitor over
// core-tagged PCs), each with the core its benefit is charged to.
type candidateSet struct {
	pcs           []*core.PCStats
	owner         []int // owner[k] is the core charged with pcs[k]'s benefit
	sampledMisses uint64
	maxChosen     int
	slack         float64
}

func newSharedModel(p *Profile) *sharedModel {
	stride := p.Ways + 1
	tab := make([]uint64, 2*p.Cores*stride)
	m := &sharedModel{p: p, stride: stride, hits: tab[:p.Cores*stride], demand: tab[p.Cores*stride:]}
	for i := range p.PerCore {
		c := &p.PerCore[i]
		h, d := m.hits[i*stride:], m.demand[i*stride:]
		for w := 0; w < p.Ways; w++ {
			h[w+1] = h[w] + c.PosHits[w]
			d[w+1] = d[w] + c.DemandPosHits[w]
		}
	}
	return m
}

// candidates returns the merged candidate set, building it on first
// use: one HistogramFromCounts per profiled PC per model, however many
// DeliWays splits are scored against it.
func (m *sharedModel) candidates() *candidateSet {
	if m.nu != nil {
		return m.nu
	}
	p := m.p
	monCfg := core.DefaultConfig(p.Ways)
	nu := &candidateSet{maxChosen: monCfg.Candidates, slack: monCfg.LifetimeSlack}
	owner := make(map[uint64]int)
	for i := range p.PerCore {
		c := &p.PerCore[i]
		nu.sampledMisses += c.SampledMisses
		for j := range c.PCs {
			pc := &c.PCs[j]
			h, err := stats.HistogramFromCounts(p.HistLinear, p.HistLog2, pc.NextUseCounts, pc.NextUseSum)
			if err != nil {
				continue // unreachable on validated profiles
			}
			nu.pcs = append(nu.pcs, &core.PCStats{
				PC: pc.PC, Misses: pc.Misses, Demotions: pc.Demotions, NextUse: h,
			})
			owner[pc.PC] = i
		}
	}
	// A PC profiled on several cores is charged to the last of them.
	nu.owner = make([]int, len(nu.pcs))
	for k, cand := range nu.pcs {
		nu.owner[k] = owner[cand.PC]
	}
	m.nu = nu
	return nu
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
	for i, a := range alloc {
		pred.PerCore[i] = corePart(p, i, a)
	}
	finish(pred)
	return pred
}

// corePart is core i's exact prediction with a private a-way partition.
func corePart(p *Profile, i, a int) CorePrediction {
	c := &p.PerCore[i]
	var hits, demandHits uint64
	for w := 0; w < a; w++ {
		hits += c.PosHits[w]
		demandHits += c.DemandPosHits[w]
	}
	return corePrediction(p, i, float64(a), hits, demandHits)
}

// predict answers one shared-LLC what-if (see shared).
func (m *sharedModel) predict(polName string, deliWays int) *Prediction {
	pred := &Prediction{
		Policy:    polName,
		DeliWays:  deliWays,
		PerCore:   make([]CorePrediction, m.p.Cores),
		Evaluated: 1,
	}
	m.shared(deliWays, pred.PerCore)
	finish(pred)
	return pred
}

// shared is the composed path for shared LRU and NUcache: an
// effective-ways fixed point (each core's steady-state occupancy is
// proportional to its insertion — miss — rate) splits the shared
// capacity, the per-core curves are interpolated at that share, and
// for NUcache the profiled next-use histograms add the retention
// benefit of the chosen delinquent PCs. It fills out, one entry per
// core.
func (m *sharedModel) shared(deliWays int, out []CorePrediction) {
	p := m.p
	benefit := make([]float64, p.Cores)
	mainWays := p.Ways
	if deliWays > 0 {
		chosenBenefit, ok := m.nucacheBenefit(deliWays, benefit)
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
	eff := m.effectiveWays(float64(mainWays))
	for i := range p.PerCore {
		c := &p.PerCore[i]
		hits := m.curveAt(m.hits, i, eff[i]) + benefit[i]
		demandHits := m.curveAt(m.demand, i, eff[i])
		if c.Accesses > 0 {
			// Attribute retention hits to the demand curve in the same
			// proportion they appear in the overall stream.
			demandHits += benefit[i] * float64(c.DemandAccesses) / float64(c.Accesses)
		}
		out[i] = corePrediction(p, i, eff[i],
			clampCount(hits, c.Accesses), clampCount(demandHits, c.DemandAccesses))
	}
}

// nucacheBenefit runs the paper's cost-benefit selection on the merged
// candidate set and attributes each chosen PC's projected extra hits
// to its core. Returns the total benefit and whether any PC was chosen.
func (m *sharedModel) nucacheBenefit(deliWays int, out []float64) (float64, bool) {
	nu := m.candidates()
	chosen, report := core.SelectPCs(nu.pcs, deliWays, nu.sampledMisses, nu.maxChosen, nu.slack)
	if len(chosen) == 0 {
		return 0, false
	}
	var total float64
	for k, cand := range nu.pcs {
		// SelectPCs returns the chosen PCs sorted.
		if _, ok := slices.BinarySearch(chosen, cand.PC); !ok {
			continue
		}
		b := float64(cand.NextUse.CountAtMost(report.Lifetime))
		out[nu.owner[k]] += b
		total += b
	}
	return total, true
}

// effectiveWays solves the shared-LRU occupancy fixed point: each
// core's share of the capacity is proportional to its insertion rate
// (its miss rate at its own share), damped to convergence.
func (m *sharedModel) effectiveWays(capacity float64) []float64 {
	p := m.p
	n := p.Cores
	eff := make([]float64, n)
	for i := range eff {
		eff[i] = capacity / float64(n)
	}
	miss := make([]float64, n)
	for iter := 0; iter < 100; iter++ {
		var total float64
		for i := range p.PerCore {
			mi := float64(p.PerCore[i].Accesses) - m.curveAt(m.hits, i, eff[i])
			if mi < 0 {
				mi = 0
			}
			miss[i] = mi
			total += mi
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

// curveAt linearly interpolates core i's cumulative curve in tab (hits
// or demand) at a fractional way count (H(0)=0, H(k)=sum of the first
// k positions).
func (m *sharedModel) curveAt(tab []uint64, i int, ways float64) float64 {
	if ways <= 0 {
		return 0
	}
	row := tab[i*m.stride : (i+1)*m.stride]
	w := m.stride - 1
	if ways >= float64(w) {
		return float64(row[w])
	}
	k := int(ways)
	return float64(row[k]) + (ways-float64(k))*float64(row[k+1]-row[k])
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

// throughput is the search objective: the per-core IPCs summed in core
// order.
func throughput(cores []CorePrediction) float64 {
	var sum float64
	for i := range cores {
		sum += cores[i].IPC
	}
	return sum
}

func finish(pred *Prediction) {
	var accesses, misses uint64
	for i := range pred.PerCore {
		accesses += pred.PerCore[i].Accesses
		misses += pred.PerCore[i].Misses
	}
	if accesses > 0 {
		pred.MissRate = float64(misses) / float64(accesses)
	}
	pred.Throughput = throughput(pred.PerCore)
}

// BestPartition searches the static-partition space for the maximum
// summed IPC, exhaustively over all compositions of Ways into Cores
// positive parts (C(15,3)=455 for a 4-core 16-way LLC; Validate's
// bound on ways bounds the count). A core's partitioned prediction
// depends only on its own share, so the search first tables each
// core's IPC at every way count, then walks the compositions summing
// table entries in core order — the same float sum as a full
// prediction's Throughput — and builds one Prediction, for the winner.
// Deterministic: ties keep the lexicographically smallest allocation.
func BestPartition(p *Profile) (*Prediction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := partSearch{
		cores:  p.Cores,
		stride: p.Ways + 1,
		ipc:    make([]float64, p.Cores*(p.Ways+1)),
		alloc:  make([]int, p.Cores),
		best:   make([]int, p.Cores),
	}
	for i := 0; i < p.Cores; i++ {
		for a := 1; a <= p.Ways; a++ {
			s.ipc[i*s.stride+a] = corePart(p, i, a).IPC
		}
	}
	s.walk(0, p.Ways, 0)
	pred := predictPart(p, s.best)
	pred.Evaluated = s.evaluated
	return pred, nil
}

// partSearch is BestPartition's walk over the compositions.
type partSearch struct {
	cores, stride int
	ipc           []float64 // ipc[i*stride+a]: core i's IPC with a ways
	alloc, best   []int
	bestSum       float64
	evaluated     int
}

// walk assigns core i's share out of remaining ways; sum is the IPC
// summed over the cores before it.
func (s *partSearch) walk(i, remaining int, sum float64) {
	if i == s.cores-1 {
		s.alloc[i] = remaining
		sum += s.ipc[i*s.stride+remaining]
		s.evaluated++
		if s.evaluated == 1 || sum > s.bestSum {
			copy(s.best, s.alloc)
			s.bestSum = sum
		}
		return
	}
	for a := 1; a <= remaining-(s.cores-1-i); a++ {
		s.alloc[i] = a
		s.walk(i+1, remaining-a, sum+s.ipc[i*s.stride+a])
	}
}

// BestDeliWays searches the NUcache split space (D = 0..Ways-1) for
// the maximum summed IPC. Every split reads one sharedModel, so the
// candidate set and the hit-curve prefix sums are built once, and one
// Prediction is built, for the winner.
func BestDeliWays(p *Profile) (*Prediction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := newSharedModel(p)
	cur := make([]CorePrediction, p.Cores)
	best := make([]CorePrediction, p.Cores)
	bestD, bestSum := 0, 0.0
	for d := 0; d <= p.Ways-1; d++ {
		m.shared(d, cur)
		if sum := throughput(cur); d == 0 || sum > bestSum {
			cur, best = best, cur
			bestD, bestSum = d, sum
		}
	}
	pred := &Prediction{
		Policy:    PolicyNUcache,
		DeliWays:  bestD,
		PerCore:   best,
		Evaluated: p.Ways,
	}
	finish(pred)
	return pred, nil
}
