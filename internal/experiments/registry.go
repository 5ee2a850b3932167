package experiments

import (
	"fmt"
	"slices"
	"strings"

	"nucache/internal/metrics"
)

// Experiment is one artifact of the paper harness: its ID and the runner
// that renders its table. Run returns nil when Options.Ctx interrupts
// the experiment's grid.
type Experiment struct {
	// ID names the artifact, or "E3/E14" for the one table both IDs report.
	ID  string
	Run func(Options) *metrics.Table
}

// table renders r, passing on the nil result of an interrupted grid.
func table[T any](r *T, render func(*T) *metrics.Table) *metrics.Table {
	if r == nil {
		return nil
	}
	return render(r)
}

// Registry lists every experiment in the order nucache-bench runs them.
var Registry = []Experiment{
	{"E4", ConfigTable},
	{"E1", func(o Options) *metrics.Table { return table(Delinquency(o), (*DelinquencyResult).Table) }},
	{"E2", func(o Options) *metrics.Table { return table(NextUseProfile(o), (*NextUseResult).Table) }},
	{"E3/E14", func(o Options) *metrics.Table { return table(Potential(o), (*PotentialResult).Table) }},
	{"E5", func(o Options) *metrics.Table { return table(SingleCore(o), (*SingleCoreResult).Table) }},
	{"E6", func(o Options) *metrics.Table { return table(MulticoreComparison(2, o), (*MulticoreResult).Table) }},
	{"E7", func(o Options) *metrics.Table { return table(MulticoreComparison(4, o), (*MulticoreResult).Table) }},
	{"E8", func(o Options) *metrics.Table { return table(MulticoreComparison(8, o), (*MulticoreResult).Table) }},
	{"E9", func(o Options) *metrics.Table { return table(DeliWaysSweep(o), (*SweepResult).Table) }},
	{"E10", func(o Options) *metrics.Table { return table(PCCountSweep(o), (*SweepResult).Table) }},
	{"E11", func(o Options) *metrics.Table { return table(FairnessComparison(4, o), (*FairnessResult).Table) }},
	{"E12", func(o Options) *metrics.Table { return table(EpochSweep(o), (*SweepResult).Table) }},
	{"E13", func(o Options) *metrics.Table { return table(SamplingSweep(o), (*SweepResult).Table) }},
	{"E15", OverheadTable},
	{"E16", func(o Options) *metrics.Table { return table(IdealRetention(o), (*IdealResult).Table) }},
	{"E17", func(o Options) *metrics.Table { return table(PrefetchStudy(o), (*PrefetchResult).Table) }},
	{"E18", func(o Options) *metrics.Table { return table(DRAMStudy(o), (*SweepResult).Table) }},
	{"E19", func(o Options) *metrics.Table { return table(ExtendedComparison(4, o), (*SweepResult).Table) }},
	{"E20", func(o Options) *metrics.Table { return table(AdaptiveStudy(o), (*SweepResult).Table) }},
	{"E21", func(o Options) *metrics.Table { return table(ProfileAdvisorSweep(o), (*SweepResult).Table) }},
}

// Select returns the Registry entries named in the comma-separated,
// case-insensitive list ids ("all" names every entry), in Registry
// order. Naming an ID the Registry lacks is an error.
func Select(ids string) ([]Experiment, error) {
	picked := make([]bool, len(Registry))
	for _, id := range strings.Split(strings.ToUpper(ids), ",") {
		id = strings.TrimSpace(id)
		found := false
		for i, e := range Registry {
			if id == "ALL" || slices.Contains(strings.Split(e.ID, "/"), id) {
				picked[i], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q (want E1..E21 or all)", id)
		}
	}
	var sel []Experiment
	for i, e := range Registry {
		if picked[i] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}
