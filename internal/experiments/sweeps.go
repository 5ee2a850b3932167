package experiments

import (
	"fmt"

	"nucache/internal/core"
	"nucache/internal/metrics"
)

// SweepPoint is one configuration's aggregate result in a sensitivity
// sweep: geometric-mean weighted-speedup improvement over LRU across the
// 4-core mixes.
type SweepPoint struct {
	Label   string
	Geomean float64
}

// SweepResult holds one gain-over-LRU table (the sensitivity sweeps
// E9/E10/E12/E13 and the extension studies E18–E20) or an advisor study
// (E21).
type SweepResult struct {
	ID    int
	Title string
	// Label and Column override the label- and value-column headers
	// ("" = "variant" and "WS gain over LRU").
	Label, Column string
	// Baseline, when set, names the policy every gain is relative to; it
	// renders as a leading 1.000x row.
	Baseline string
	Points   []SweepPoint
}

// sweep evaluates variants against the shared LRU baseline on the
// cores-wide mixes and fills res with one point per variant, labelled by
// its spec name. Baseline and variants fan out through the scheduler as
// one grid; the baseline's content-addressed results are shared across
// every sweep in the process. It returns nil when Options.Ctx interrupts
// the grid.
func (o Options) sweep(cores int, res *SweepResult, variants []PolicySpec) *SweepResult {
	o = o.withDefaults()
	grid := o.mixMetricsGrid(o.mixes(cores), append([]PolicySpec{Baseline()}, variants...))
	if grid == nil { // interrupted: partial results are journaled
		return nil
	}
	gains := gainsOverBase(grid)
	for j, v := range variants {
		res.Points = append(res.Points, SweepPoint{Label: v.Name, Geomean: gains[j+1]})
	}
	return res
}

// DeliWaysSweep runs experiment E9: sensitivity to the MainWays/DeliWays
// split at fixed total associativity.
func DeliWaysSweep(o Options) *SweepResult {
	var variants []PolicySpec
	for _, d := range []int{2, 4, 6, 8, 10} {
		d := d
		variants = append(variants, NUcacheWith(fmt.Sprintf("D=%d", d), func(ways int) core.Config {
			cfg := core.DefaultConfig(ways)
			cfg.DeliWays = d
			return cfg
		}))
	}
	return o.sweep(4, &SweepResult{ID: 9, Title: "E9: DeliWays count (of 16 ways), 4-core WS gain over LRU"}, variants)
}

// PCCountSweep runs experiment E10: sensitivity to the candidate pool /
// chosen-set cap, plus the lifetime-slack ablation.
func PCCountSweep(o Options) *SweepResult {
	var variants []PolicySpec
	for _, n := range []int{1, 2, 4, 8, 32} {
		n := n
		variants = append(variants, NUcacheWith(fmt.Sprintf("maxChosen=%d", n), func(ways int) core.Config {
			cfg := core.DefaultConfig(ways)
			cfg.MaxChosen = n
			return cfg
		}))
	}
	for _, s := range []float64{1, 2, 4} {
		s := s
		variants = append(variants, NUcacheWith(fmt.Sprintf("slack=%.0f", s), func(ways int) core.Config {
			cfg := core.DefaultConfig(ways)
			cfg.LifetimeSlack = s
			return cfg
		}))
	}
	variants = append(variants, NUcacheWith("no-promote", func(ways int) core.Config {
		cfg := core.DefaultConfig(ways)
		cfg.PromoteOnDeliHit = false
		return cfg
	}))
	return o.sweep(4, &SweepResult{ID: 10, Title: "E10: PC-selection ablations, 4-core WS gain over LRU"}, variants)
}

// EpochSweep runs experiment E12: sensitivity to the selection epoch.
func EpochSweep(o Options) *SweepResult {
	var variants []PolicySpec
	for _, e := range []uint64{25_000, 50_000, 100_000, 200_000, 400_000} {
		e := e
		variants = append(variants, NUcacheWith(fmt.Sprintf("epoch=%dk", e/1000), func(ways int) core.Config {
			cfg := core.DefaultConfig(ways)
			cfg.EpochMisses = e
			return cfg
		}))
	}
	return o.sweep(4, &SweepResult{ID: 12, Title: "E12: selection epoch length (LLC misses), 4-core WS gain over LRU"}, variants)
}

// SamplingSweep runs experiment E13: monitor set-sampling ratio.
func SamplingSweep(o Options) *SweepResult {
	var variants []PolicySpec
	for _, s := range []uint{0, 3, 5, 7, 9} {
		s := s
		variants = append(variants, NUcacheWith(fmt.Sprintf("1-in-%d", 1<<s), func(ways int) core.Config {
			cfg := core.DefaultConfig(ways)
			cfg.SampleShift = s
			return cfg
		}))
	}
	return o.sweep(4, &SweepResult{ID: 13, Title: "E13: monitor set sampling, 4-core WS gain over LRU"}, variants)
}

// Table renders a sweep.
func (r *SweepResult) Table() *metrics.Table {
	label, col := r.Label, r.Column
	if label == "" {
		label = "variant"
	}
	if col == "" {
		col = "WS gain over LRU"
	}
	t := metrics.NewTable(r.Title, label, col)
	if r.Baseline != "" {
		t.AddRow(r.Baseline, "1.000x")
	}
	for _, p := range r.Points {
		t.AddRow(p.Label, metrics.Pct(p.Geomean))
	}
	return t
}

// AdaptiveStudy runs experiment E20 (extension): fixed-D NUcache vs the
// adaptive MainWays/DeliWays split on the 4-core mixes. It returns nil
// when Options.Ctx interrupts the grid.
func AdaptiveStudy(o Options) *SweepResult {
	adaptive := NUcacheWith("NUcache-adaptive", func(ways int) core.Config {
		cfg := core.DefaultConfig(ways)
		cfg.DeliWays = 8 // maximum; the selection picks 2..8
		cfg.AdaptiveDeliWays = true
		return cfg
	})
	res := o.sweep(4, &SweepResult{
		ID:    20,
		Title: "E20 (extension): fixed vs adaptive MainWays/DeliWays split (4-core mixes)",
		Label: "configuration",
	}, []PolicySpec{NUcacheSpec(), adaptive})
	if res != nil {
		res.Points[0].Label, res.Points[1].Label = "fixed D=6", "adaptive D in {2,4,6,8}"
	}
	return res
}
