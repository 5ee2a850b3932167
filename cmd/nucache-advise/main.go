// Command nucache-advise answers capacity what-ifs from the MRC
// profiler's analytical model: profile a workload mix once (one
// policy-independent tape walk), then evaluate any static partition,
// shared-LRU or NUcache DeliWays split in microseconds — or search the
// whole allocation space — without running a simulation per candidate.
//
// Usage:
//
//	nucache-advise -mix mix4-01                       # best static partition
//	nucache-advise -mix mix4-01 -alloc 8,4,2,2        # score one candidate
//	nucache-advise -mix mix2-01 -policy nucache -best # best DeliWays split
//	nucache-advise -mix mix2-01 -policy nucache -deliways 0 # no DeliWays
//	nucache-advise -bench art-like -policy lru        # shared-LRU baseline
//	nucache-advise -mix mix4-01 -verify               # also simulate, report delta
//	nucache-advise -mix mix4-01 -json                 # machine-readable output
//
// -deliways takes the literal DeliWays split, as nucache-sim's does: the
// default is 6 of the LLC's 16 ways, and 0 means no DeliWays. An
// invalid what-if (an allocation that does not fill the LLC, a split
// that leaves no MainWays, a model other than part, lru or nucache)
// exits 2 before the mix is profiled.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/mrc"
	"nucache/internal/sim"
)

func main() {
	var (
		bench    = flag.String("bench", "", "single benchmark workload")
		mixName  = flag.String("mix", "", "workload mix name (e.g. mix4-01)")
		members  = flag.String("members", "", "comma-separated custom mix members")
		budget   = flag.Uint64("budget", 0, "instruction budget per core (0 = 5M)")
		seed     = flag.Uint64("seed", 0, "workload seed (0 = 1)")
		warmup   = flag.Uint64("warmup", 0, "warm-up instructions per core (below -budget)")
		l2       = flag.Bool("l2", false, "add a private 256KB L2 per core")
		dram     = flag.Bool("dram", false, "banked DRAM model instead of flat memory")
		prefetch = flag.Int("prefetch", 0, fmt.Sprintf("next-line prefetch degree (at most %d)", cpu.MaxPrefetch))
		polName  = flag.String("policy", "part", "model to evaluate: part|lru|nucache")
		alloc    = flag.String("alloc", "", "comma-separated per-core way split (part)")
		deliWays = flag.Int("deliways", core.DefaultDeliWays, "NUcache DeliWays (of the LLC's 16 ways; 0 = none)")
		best     = flag.Bool("best", false, "search the allocation space for max throughput")
		verify   = flag.Bool("verify", false, "also run the full simulation and report the delta")
		asJSON   = flag.Bool("json", false, "emit the response as JSON")
	)
	flag.Parse()

	req := sim.AdviseRequest{
		ProfileRequest: sim.ProfileRequest{
			Bench: *bench, Mix: *mixName, Budget: *budget, Seed: *seed,
			Warmup: *warmup, L2: *l2, DRAM: *dram, Prefetch: *prefetch,
		},
		Policy: *polName, Best: *best, DeliWays: sim.DeliWaysField(*deliWays), Verify: *verify,
	}
	if *members != "" {
		req.Members = strings.Split(*members, ",")
	}
	if *alloc != "" {
		for _, part := range strings.Split(*alloc, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatalf(2, "bad -alloc %q: %v", *alloc, err)
			}
			req.Alloc = append(req.Alloc, n)
		}
	}

	var p *mrc.Profile
	var profWall time.Duration
	profile := func(ctx context.Context, pr sim.ProfileRequest) (*mrc.Profile, bool, error) {
		start := time.Now()
		var err error
		p, err = sim.ExecuteProfile(ctx, pr)
		profWall = time.Since(start)
		return p, false, err
	}
	resp, err := sim.Advise(context.Background(), req, profile, sim.Execute)
	if err != nil {
		code := 1
		if sim.Classify(err) == sim.KindInvalid {
			code = 2
		}
		fatalf(code, "%v", err)
	}
	pred := resp.Prediction

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fatalf(1, "%v", err)
		}
		return
	}

	fmt.Printf("profile %s (%s, %v)\n", shortKey(resp.ProfileKey), p.Mix, profWall.Round(time.Millisecond))
	fmt.Printf("model   %s", pred.Policy)
	if len(pred.Alloc) > 0 {
		fmt.Printf(" alloc=%v", pred.Alloc)
	}
	if pred.Policy == mrc.PolicyNUcache {
		fmt.Printf(" deliways=%d", pred.DeliWays)
	}
	fmt.Printf(" (%d evaluation(s) in %v)\n", pred.Evaluated, time.Duration(resp.EvalNS).Round(time.Microsecond))
	fmt.Printf("answer  miss rate %.4f, throughput %.4f IPC", pred.MissRate, pred.Throughput)
	if pred.HitsExact {
		fmt.Printf(" [hits exact")
		if pred.CyclesExact {
			fmt.Printf(", cycles exact")
		}
		fmt.Printf("]")
	}
	fmt.Println()
	for _, c := range pred.PerCore {
		fmt.Printf("  core %d %-18s ways %5.2f  hits %8d  miss %8d  ipc %.4f\n",
			c.Core, c.Benchmark, c.Ways, c.Hits, c.Misses, c.IPC)
	}
	if v := resp.Verify; v != nil {
		fmt.Printf("verify  hits_exact=%v max_hits_abs_err=%d max_ipc_rel_err=%.4f miss_rate_err=%.4f\n",
			v.HitsExact, v.MaxHitsAbsErr, v.MaxIPCRelErr, v.MissRateErr)
	}
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nucache-advise: "+format+"\n", args...)
	os.Exit(code)
}
