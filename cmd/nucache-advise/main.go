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
//	nucache-advise -bench art-like -policy lru        # shared-LRU baseline
//	nucache-advise -mix mix4-01 -verify               # also simulate, report delta
//	nucache-advise -mix mix4-01 -json                 # machine-readable output
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
		warmup   = flag.Uint64("warmup", 0, "warm-up instructions per core")
		l2       = flag.Bool("l2", false, "add a private 256KB L2 per core")
		dram     = flag.Bool("dram", false, "banked DRAM model instead of flat memory")
		prefetch = flag.Int("prefetch", 0, "next-line prefetch degree")
		polName  = flag.String("policy", "part", "model to evaluate: part|lru|nucache")
		alloc    = flag.String("alloc", "", "comma-separated per-core way split (part)")
		deliWays = flag.Int("deliways", 0, "DeliWays split (nucache; 0 = default 6, -1 = none)")
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
		Policy: *polName, Best: *best, DeliWays: *deliWays, Verify: *verify,
	}
	if *members != "" {
		req.Members = strings.Split(*members, ",")
	}
	if *alloc != "" {
		for _, part := range strings.Split(*alloc, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatalf("bad -alloc %q: %v", *alloc, err)
			}
			req.Alloc = append(req.Alloc, n)
		}
	}
	req.ProfileRequest = req.ProfileRequest.Normalize()
	if err := req.ProfileRequest.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nucache-advise:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	profStart := time.Now()
	p, err := sim.ExecuteProfile(ctx, req.ProfileRequest)
	if err != nil {
		fatalf("profile: %v", err)
	}
	profWall := time.Since(profStart)

	evalStart := time.Now()
	pred, err := sim.EvaluateAdvise(p, req)
	if err != nil {
		fatalf("advise: %v", err)
	}
	evalWall := time.Since(evalStart)

	resp := sim.AdviseResponse{
		ProfileKey: req.ProfileRequest.Key(),
		EvalNS:     evalWall.Nanoseconds(),
		Prediction: pred,
	}
	if *verify {
		vreq := req.VerifyRequest(pred)
		res, err := sim.Execute(ctx, vreq)
		if err != nil {
			fatalf("verify: %v", err)
		}
		resp.Verify = sim.CompareVerify(vreq, pred, res)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fatalf("%v", err)
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
	fmt.Printf(" (%d evaluation(s) in %v)\n", pred.Evaluated, evalWall.Round(time.Microsecond))
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nucache-advise: "+format+"\n", args...)
	os.Exit(1)
}
