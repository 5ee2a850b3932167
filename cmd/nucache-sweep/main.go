// Command nucache-sweep runs the sensitivity studies (E9/E10/E12/E13):
// DeliWays split, PC-selection ablations, epoch length and monitor
// sampling, each as geometric-mean weighted-speedup gain over LRU on the
// standard 4-core mixes — plus the capacity-advisor study (E21), which
// profiles each mix once and answers the partition search from the
// model ("profiles").
//
// Sweeps fan out across all host cores through the internal/sim
// scheduler (see -parallel); repeated (mix, policy) evaluations — e.g.
// the LRU baseline shared by every sweep — are served from the
// content-addressed result cache.
//
// With -journal every completed (mix, policy) cell is checkpointed to a
// crash-safe append-only journal as it finishes; SIGINT/SIGTERM stop the
// sweep cleanly at the next cell boundary. A crashed or interrupted
// sweep restarted with -resume replays the journal, serves the finished
// cells from it, and computes only what is missing — producing output
// byte-identical to an uninterrupted run.
//
// Examples:
//
//	nucache-sweep -sweep deliways
//	nucache-sweep -sweep all -budget 1000000 -mixlimit 4
//	nucache-sweep -sweep all -journal sweep.journal
//	nucache-sweep -sweep all -journal sweep.journal -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nucache/internal/experiments"
	"nucache/internal/journal"
)

func main() {
	var (
		which    = flag.String("sweep", "all", "deliways|ablations|epoch|sampling|profiles|all")
		budget   = flag.Uint64("budget", 2_000_000, "instruction budget per core")
		seed     = flag.Uint64("seed", 1, "workload seed")
		mixLimit = flag.Int("mixlimit", 0, "truncate the 4-core mix list (0 = all)")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = NumCPU, 1 = sequential)")
		jobTO    = flag.Duration("jobtimeout", 0, "per-(mix,policy) deadline; a stuck pair fails instead of hanging the sweep (0 = none)")
		jpath    = flag.String("journal", "", "checkpoint journal path; completed cells are appended as they finish")
		resume   = flag.Bool("resume", false, "replay the -journal file and skip cells it already holds")
	)
	flag.Parse()

	if *resume && *jpath == "" {
		fmt.Fprintln(os.Stderr, "nucache-sweep: -resume requires -journal")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the sweep context: queued cells are dropped,
	// in-flight cells finish and checkpoint, and the run exits cleanly
	// with a resumable journal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := experiments.Options{
		Budget: *budget, Seed: *seed, MixLimit: *mixLimit,
		Parallel: *parallel, JobTimeout: *jobTO, Ctx: ctx,
	}
	var jnl *journal.Journal
	if *jpath != "" {
		var resumed int
		var err error
		jnl, resumed, err = experiments.OpenSweepJournal(*jpath, *resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nucache-sweep: journal %s: %v\n", *jpath, err)
			os.Exit(1)
		}
		defer jnl.Close()
		if *resume {
			fmt.Fprintf(os.Stderr, "nucache-sweep: resumed %d cells from %s\n", resumed, *jpath)
		}
		o.Journal = jnl
	}

	sweeps := map[string]func(experiments.Options) *experiments.SweepResult{
		"deliways":  experiments.DeliWaysSweep,
		"ablations": experiments.PCCountSweep,
		"epoch":     experiments.EpochSweep,
		"sampling":  experiments.SamplingSweep,
		"profiles":  experiments.ProfileAdvisorSweep,
	}
	order := []string{"deliways", "ablations", "epoch", "sampling", "profiles"}

	ran := 0
	for _, name := range order {
		if *which != "all" && !strings.EqualFold(*which, name) {
			continue
		}
		start := time.Now()
		res := sweeps[name](o)
		if res == nil { // interrupted mid-grid
			break
		}
		res.Table().Render(os.Stdout)
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "nucache-sweep: interrupted; rerun with -journal %s -resume to continue\n", *jpath)
		journalSummary(jnl)
		return // clean exit: the journal holds everything computed so far
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "nucache-sweep: unknown sweep %q (deliways|ablations|epoch|sampling|profiles|all)\n", *which)
		os.Exit(2)
	}
	journalSummary(jnl)
}

// journalSummary reports the checkpoint state on stderr so operators (and
// the smoke tests) can see what a resume would reuse.
func journalSummary(jnl *journal.Journal) {
	if jnl == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "nucache-sweep: journal %s: %d records (%d resumed, %d torn tails)\n",
		jnl.Path(), jnl.Records(), jnl.ResumedRecords(), jnl.TornTailsSeen())
}
