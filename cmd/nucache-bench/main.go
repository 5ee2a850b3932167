// Command nucache-bench regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results).
//
// Usage:
//
//	nucache-bench                 # run everything (several minutes)
//	nucache-bench -exp E6,E7      # only selected experiments
//	nucache-bench -budget 2000000 # shorter runs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nucache/internal/experiments"
	"nucache/internal/metrics"
)

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiment IDs (E1..E20) or 'all'")
		budget   = flag.Uint64("budget", 5_000_000, "instruction budget per core")
		seed     = flag.Uint64("seed", 1, "workload generator seed")
		mixLimit = flag.Int("mixlimit", 0, "truncate mix lists (0 = all)")
		csvDir   = flag.String("csv", "", "also save each table as CSV into this directory")
		jsonDir  = flag.String("jsondir", "", "also save each table as JSON into this directory")
	)
	flag.Parse()

	o := experiments.Options{Budget: *budget, Seed: *seed, MixLimit: *mixLimit}
	want := map[string]bool{}
	for _, e := range strings.Split(strings.ToUpper(*exps), ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["ALL"]
	sel := func(id string) bool { return all || want[id] }

	type job struct {
		id  string
		run func() *metrics.Table
	}
	jobs := []job{
		{"E4", func() *metrics.Table { return experiments.ConfigTable(o) }},
		{"E1", func() *metrics.Table { return experiments.Delinquency(o).Table() }},
		{"E2", func() *metrics.Table { return experiments.NextUseProfile(o).Table() }},
		{"E3", func() *metrics.Table { return experiments.Potential(o).Table() }},
		{"E5", func() *metrics.Table { return experiments.SingleCore(o).Table() }},
		{"E6", func() *metrics.Table { return experiments.MulticoreComparison(2, o).Table() }},
		{"E7", func() *metrics.Table { return experiments.MulticoreComparison(4, o).Table() }},
		{"E8", func() *metrics.Table { return experiments.MulticoreComparison(8, o).Table() }},
		{"E9", func() *metrics.Table { return experiments.DeliWaysSweep(o).Table() }},
		{"E10", func() *metrics.Table { return experiments.PCCountSweep(o).Table() }},
		{"E11", func() *metrics.Table { return experiments.FairnessComparison(4, o).Table() }},
		{"E12", func() *metrics.Table { return experiments.EpochSweep(o).Table() }},
		{"E13", func() *metrics.Table { return experiments.SamplingSweep(o).Table() }},
		{"E14", func() *metrics.Table { return experiments.Potential(o).Table() }},
		{"E15", func() *metrics.Table { return experiments.OverheadTable(o) }},
		{"E16", func() *metrics.Table { return experiments.IdealRetention(o).Table() }},
		{"E17", func() *metrics.Table { return experiments.PrefetchStudy(o).Table() }},
		{"E18", func() *metrics.Table { return experiments.DRAMStudy(o).Table() }},
		{"E19", func() *metrics.Table { return experiments.ExtendedComparison(4, o).Table() }},
		{"E20", func() *metrics.Table { return experiments.AdaptiveStudy(o).Table() }},
	}

	ran := 0
	for _, j := range jobs {
		if !sel(j.id) {
			continue
		}
		if j.id == "E14" && (all || want["E3"]) && want["E14"] != all {
			continue // E3 and E14 share one table; print once in 'all' runs
		}
		start := time.Now()
		tbl := j.run()
		tbl.Render(os.Stdout)
		fmt.Printf("(%s in %v)\n\n", j.id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if path, err := tbl.SaveCSV(*csvDir); err != nil {
				fmt.Fprintf(os.Stderr, "nucache-bench: csv: %v\n", err)
			} else {
				fmt.Printf("(saved %s)\n\n", path)
			}
		}
		if *jsonDir != "" {
			if path, err := tbl.SaveJSON(*jsonDir); err != nil {
				fmt.Fprintf(os.Stderr, "nucache-bench: json: %v\n", err)
			} else {
				fmt.Printf("(saved %s)\n\n", path)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments selected; use -exp E1..E20 or all")
		os.Exit(2)
	}
}
