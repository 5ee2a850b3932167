package experiments

import (
	"fmt"

	"nucache/internal/cache"
	"nucache/internal/metrics"
	"nucache/internal/policy"
	"nucache/internal/stats"
)

// ExtendedPolicies adds the replacement-side state of the art that the
// paper did not chart (DIP, DRRIP) plus Random as a floor — the E19
// extended-lineup study.
func ExtendedPolicies() []PolicySpec {
	return append(StandardPolicies(),
		PolicySpec{Name: "DIP", New: func(_, _ int) cache.Policy {
			return policy.NewDIP(777)
		}},
		PolicySpec{Name: "DRRIP", New: func(_, _ int) cache.Policy {
			return policy.NewDRRIP(777)
		}},
		PolicySpec{Name: "SHiP", New: func(_, _ int) cache.Policy {
			return policy.NewSHiP()
		}},
		PolicySpec{Name: "SLRU", New: func(_, ways int) cache.Policy {
			return policy.NewSLRU(ways / 2)
		}},
		PolicySpec{Name: "Hawkeye", New: func(_, ways int) cache.Policy {
			return policy.NewHawkeye(ways)
		}},
		PolicySpec{Name: "Random", New: func(_, _ int) cache.Policy {
			return policy.NewRandom(777)
		}},
	)
}

// ExtendedResult holds E19.
type ExtendedResult struct {
	Cores    int
	Policies []string
	// GeomeanNorm is each policy's geometric-mean WS vs the LRU baseline.
	GeomeanNorm map[string]float64
}

// ExtendedComparison runs experiment E19: the full policy lineup
// (partitioning + insertion-policy families) on the standard mixes. It
// returns nil when Options.Ctx interrupts the grid.
func ExtendedComparison(cores int, o Options) *ExtendedResult {
	o = o.withDefaults()
	specs := ExtendedPolicies()
	res := &ExtendedResult{Cores: cores, GeomeanNorm: map[string]float64{}}
	for _, s := range specs {
		res.Policies = append(res.Policies, s.Name)
	}
	mixes := o.mixes(cores)
	base := specs[0]
	grid := o.mixMetricsGrid(mixes, specs)
	if grid == nil { // interrupted: partial results are journaled
		return nil
	}
	baseWS := make([]float64, len(mixes))
	for i := range mixes {
		baseWS[i] = grid[i][0].WS
	}
	for j, s := range specs {
		var ratios []float64
		for i := range mixes {
			if baseWS[i] <= 0 {
				continue
			}
			if s.Name == base.Name {
				ratios = append(ratios, 1)
				continue
			}
			ratios = append(ratios, grid[i][j].WS/baseWS[i])
		}
		res.GeomeanNorm[s.Name] = stats.GeoMean(ratios)
	}
	return res
}

// Table renders E19.
func (r *ExtendedResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E19 (extension): full policy lineup, %d-core WS gain over LRU", r.Cores),
		"policy", "WS gain over LRU")
	for _, p := range r.Policies {
		if p == r.Policies[0] {
			t.AddRow(p, "1.000x")
			continue
		}
		t.AddRow(p, metrics.Pct(r.GeomeanNorm[p]))
	}
	return t
}
