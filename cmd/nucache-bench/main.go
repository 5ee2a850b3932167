// Command nucache-bench regenerates the paper's tables, E1..E21 (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results).
//
// Grid cells fan out over -parallel workers. With -journal every
// completed cell is checkpointed as it finishes, and SIGINT/SIGTERM stop
// the run at the next cell boundary; a second signal kills it. A rerun
// with -resume serves the journaled cells and computes only the rest,
// printing output byte-identical to an uninterrupted run.
//
// Usage:
//
//	nucache-bench                                       # everything (several minutes)
//	nucache-bench -exp E6,E7 -budget 2000000            # selected experiments, shorter runs
//	nucache-bench -exp E1,E2 -bench art-like -hist      # one benchmark, per-PC histograms
//	nucache-bench -exp E7 -journal e7.journal [-resume] # checkpointed, resumable
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nucache/internal/experiments"
	"nucache/internal/workload"
)

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiment IDs (E1..E21) or 'all'")
		budget   = flag.Uint64("budget", 5_000_000, "instruction budget per core")
		seed     = flag.Uint64("seed", 1, "workload generator seed")
		mixLimit = flag.Int("mixlimit", 0, "truncate mix lists (0 = all)")
		csvDir   = flag.String("csv", "", "also save each table as CSV into this directory")
		jsonDir  = flag.String("jsondir", "", "also save each table as JSON into this directory")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = NumCPU, 1 = sequential)")
		jobTO    = flag.Duration("jobtimeout", 0, "per-cell deadline; a stuck cell fails instead of hanging the grid (0 = none)")
		jpath    = flag.String("journal", "", "checkpoint journal path; completed cells are appended as they finish")
		resume   = flag.Bool("resume", false, "replay the -journal file and skip cells it already holds")
		bench    = flag.String("bench", "", "restrict the per-benchmark experiments (E1-E3, E5, E16) to one benchmark")
		hist     = flag.Bool("hist", false, "after E2, dump per-PC next-use histograms")
	)
	flag.Parse()

	sel, err := experiments.Select(*exps)
	if _, ok := workload.ByName(*bench); err == nil && *bench != "" && !ok {
		err = fmt.Errorf("unknown benchmark %q", *bench)
	}
	if err == nil && *resume && *jpath == "" {
		err = errors.New("-resume requires -journal")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nucache-bench: %v\n", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel queued cells; in-flight cells finish and
	// checkpoint. Single-core tables ignore the context, so the first
	// signal releases the handler and a second one kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	o := experiments.Options{
		Budget: *budget, Seed: *seed, MixLimit: *mixLimit, Only: *bench,
		Parallel: *parallel, JobTimeout: *jobTO, Ctx: ctx,
	}
	if *jpath != "" {
		jnl, resumed, err := experiments.OpenSweepJournal(*jpath, *resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nucache-bench: journal %s: %v\n", *jpath, err)
			os.Exit(1)
		}
		defer func() {
			fmt.Fprintf(os.Stderr, "nucache-bench: journal %s: %d records (%d resumed, %d torn tails)\n",
				jnl.Path(), jnl.Records(), jnl.ResumedRecords(), jnl.TornTailsSeen())
			jnl.Close()
		}()
		if *resume {
			fmt.Fprintf(os.Stderr, "nucache-bench: resumed %d cells from %s\n", resumed, *jpath)
		}
		o.Journal = jnl
	}

	for _, e := range sel {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		tbl := e.Run(o)
		if tbl == nil { // interrupted mid-grid
			break
		}
		tbl.Render(os.Stdout)
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
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
		if *hist && e.ID == "E2" {
			experiments.DumpHistograms(o, os.Stdout)
		}
	}
	if ctx.Err() != nil {
		// Clean exit: the journal holds everything computed so far.
		fmt.Fprintf(os.Stderr, "nucache-bench: interrupted; rerun with -journal %s -resume to continue\n", *jpath)
	}
}
