package experiments

import (
	"fmt"

	"nucache/internal/metrics"
	"nucache/internal/stats"
	"nucache/internal/workload"
)

// MulticoreResult holds the data behind the E6/E7/E8 figures: weighted
// speedup of every policy on every mix, normalized to the LRU baseline.
type MulticoreResult struct {
	// Cores is the machine width.
	Cores int
	// Policies is the column order (baseline first).
	Policies []string
	// Mixes are the row labels.
	Mixes []workload.Mix
	// WS[mixIdx][policyName] is the raw weighted speedup.
	WS []map[string]MixMetrics
	// GeomeanNorm[policyName] is the geometric-mean WS improvement over
	// the baseline across mixes (1.096 = +9.6%).
	GeomeanNorm map[string]float64
}

// MulticoreComparison runs experiment E6 (cores=2), E7 (cores=4) or
// E8 (cores=8): every standard mix under every standard policy. The
// (mix, policy) grid fans out across the scheduler's worker pool (see
// Options.Parallel); the assembled table is identical to a sequential
// run.
func MulticoreComparison(cores int, o Options) *MulticoreResult {
	o = o.withDefaults()
	specs := StandardPolicies()
	res := &MulticoreResult{Cores: cores, GeomeanNorm: map[string]float64{}}
	for _, s := range specs {
		res.Policies = append(res.Policies, s.Name)
	}
	res.Mixes = o.mixes(cores)
	grid := o.mixMetricsGrid(res.Mixes, specs)
	for i := range res.Mixes {
		row := map[string]MixMetrics{}
		for j, s := range specs {
			row[s.Name] = grid[i][j]
		}
		res.WS = append(res.WS, row)
	}
	base := res.Policies[0]
	for _, p := range res.Policies {
		ratios := make([]float64, 0, len(res.WS))
		for _, row := range res.WS {
			if b := row[base].WS; b > 0 {
				ratios = append(ratios, row[p].WS/b)
			}
		}
		res.GeomeanNorm[p] = stats.GeoMean(ratios)
	}
	return res
}

// Table renders the weighted-speedup figure as text.
func (r *MulticoreResult) Table() *metrics.Table {
	headers := append([]string{"mix"}, r.Policies...)
	t := metrics.NewTable(
		fmt.Sprintf("E%d: %d-core weighted speedup (normalized to %s)",
			expIDForCores(r.Cores), r.Cores, r.Policies[0]),
		headers...)
	base := r.Policies[0]
	for i, m := range r.Mixes {
		row := []string{m.Name}
		b := r.WS[i][base].WS
		for _, p := range r.Policies {
			if p == base {
				row = append(row, metrics.F3(b))
			} else if b > 0 {
				row = append(row, metrics.Pct(r.WS[i][p].WS/b))
			} else {
				row = append(row, "n/a")
			}
		}
		t.AddRow(row...)
	}
	gm := []string{"geomean"}
	for _, p := range r.Policies {
		if p == base {
			gm = append(gm, "1.000x")
		} else {
			gm = append(gm, metrics.Pct(r.GeomeanNorm[p]))
		}
	}
	t.AddRow(gm...)
	return t
}

// nucacheGain evaluates LRU and NUcache on the 4-core mixes as one grid.
// It returns NUcache's geometric-mean WS gain over LRU and LRU's mean
// WS; ok is false when Options.Ctx interrupted the grid.
func (o Options) nucacheGain() (gain, baseWS float64, ok bool) {
	grid := o.mixMetricsGrid(o.mixes(4), []PolicySpec{Baseline(), NUcacheSpec()})
	if grid == nil {
		return 0, 0, false
	}
	var ratios, bases []float64
	for _, row := range grid {
		if b := row[0].WS; b > 0 {
			ratios = append(ratios, row[1].WS/b)
			bases = append(bases, b)
		}
	}
	return stats.GeoMean(ratios), stats.Mean(bases), true
}

func expIDForCores(cores int) int {
	switch cores {
	case 2:
		return 6
	case 4:
		return 7
	default:
		return 8
	}
}

// FairnessResult holds E11: ANTT / harmonic speedup / fairness per policy.
type FairnessResult struct {
	Cores    int
	Policies []string
	// Mean metrics across mixes, keyed by policy.
	ANTT, HS, Fairness map[string]float64
}

// FairnessComparison runs experiment E11 on the 4-core mixes.
func FairnessComparison(cores int, o Options) *FairnessResult {
	o = o.withDefaults()
	specs := StandardPolicies()
	res := &FairnessResult{
		Cores: cores,
		ANTT:  map[string]float64{}, HS: map[string]float64{}, Fairness: map[string]float64{},
	}
	mixes := o.mixes(cores)
	acc := map[string][]MixMetrics{}
	for _, s := range specs {
		res.Policies = append(res.Policies, s.Name)
	}
	grid := o.mixMetricsGrid(mixes, specs)
	for i := range mixes {
		for j, s := range specs {
			acc[s.Name] = append(acc[s.Name], grid[i][j])
		}
	}
	for _, p := range res.Policies {
		var antt, hs, fair []float64
		for _, mm := range acc[p] {
			antt = append(antt, mm.ANTT)
			hs = append(hs, mm.HS)
			fair = append(fair, mm.Fairness)
		}
		res.ANTT[p] = stats.Mean(antt)
		res.HS[p] = stats.Mean(hs)
		res.Fairness[p] = stats.Mean(fair)
	}
	return res
}

// Table renders E11.
func (r *FairnessResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E11: %d-core fairness metrics (mean across mixes)", r.Cores),
		"policy", "ANTT (lower=better)", "harmonic speedup", "fairness")
	for _, p := range r.Policies {
		t.AddRow(p, metrics.F3(r.ANTT[p]), metrics.F3(r.HS[p]), metrics.F3(r.Fairness[p]))
	}
	return t
}
