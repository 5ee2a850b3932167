// Command nucache-sim runs one benchmark or one multiprogrammed mix
// through the simulated cache hierarchy under a chosen LLC policy and
// prints per-core performance plus policy internals, as text tables or
// JSON (-json).
//
// Examples:
//
//	nucache-sim -bench art-like -policy NUcache
//	nucache-sim -mix mix4-01 -policy UCP -budget 2000000
//	nucache-sim -members art-like,swim-like -policy NUcache -deliways 8
//	nucache-sim -mix mix4-01 -json | jq .llc.hit_rate
//	nucache-sim -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/metrics"
	"nucache/internal/sim"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "", "single benchmark name (see -list)")
		mixName   = flag.String("mix", "", "standard mix name (e.g. mix4-01)")
		members   = flag.String("members", "", "comma-separated benchmark names forming an ad-hoc mix")
		polName   = flag.String("policy", "NUcache", "LLC policy: "+strings.Join(sim.Policies(), "|"))
		budget    = flag.Uint64("budget", sim.DefaultBudget, "instruction budget per core")
		seed      = flag.Uint64("seed", sim.DefaultSeed, "workload seed")
		deliWays  = flag.Int("deliways", core.DefaultDeliWays, "NUcache DeliWays (of the LLC's 16 ways; 0 disables retention)")
		list      = flag.Bool("list", false, "list benchmarks and mixes, then exit")
		l2        = flag.Bool("l2", false, "add a private 256KB 8-way L2 per core")
		dram      = flag.Bool("dram", false, "use the bank/row-buffer DRAM model instead of flat latency")
		prefetch  = flag.Int("prefetch", 0, "next-line prefetch degree (0 = off)")
		warmup    = flag.Uint64("warmup", 0, "instructions excluded from statistics per core")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON instead of text tables")
		record    = flag.String("record", "", "record each core's access stream to <prefix>.coreN.trc and exit")
		recordN   = flag.Int("recordn", 1_000_000, "accesses per core to record")
		replay    = flag.String("replay", "", "comma-separated trace files to replay (one per core) instead of generators")
	)
	flag.Parse()

	if *list {
		printCatalog()
		return
	}

	// The request's DeliWays encoding reserves 0 for "default"; the flag
	// uses 0 for "no retention".
	dw := *deliWays
	if dw == 0 {
		dw = -1
	}

	if *replay != "" {
		res, err := runReplay(strings.Split(*replay, ","), *polName, *budget, *seed, dw, *l2, *dram, *prefetch, *warmup)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nucache-sim:", err)
			os.Exit(1)
		}
		emit(res, *jsonOut)
		return
	}

	req := sim.Request{
		Bench: *benchName, Mix: *mixName,
		Policy: *polName, Budget: *budget, Seed: *seed, DeliWays: dw,
		L2: *l2, DRAM: *dram, Prefetch: *prefetch, Warmup: *warmup,
	}
	if *members != "" {
		req.Members = strings.Split(*members, ",")
	}

	if *record != "" {
		mix, err := req.ResolveMix()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nucache-sim:", err)
			os.Exit(2)
		}
		if err := recordTraces(*record, mix, mix.Streams(*seed), *recordN); err != nil {
			fmt.Fprintln(os.Stderr, "nucache-sim:", err)
			os.Exit(1)
		}
		return
	}

	res, err := sim.Execute(context.Background(), req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nucache-sim:", err)
		os.Exit(2)
	}
	emit(res, *jsonOut)
}

// runReplay drives trace files through a machine built from the same
// flags, held to the same shape rules as a request; generator-backed
// runs go through sim.Execute instead. A trace that fails to decode (cut
// mid-record, corrupt) fails the run, naming the file, instead of
// replaying as a shorter one.
func runReplay(paths []string, polName string, budget, seed uint64, deliWays int, l2, dram bool, prefetch int, warmup uint64) (*sim.Result, error) {
	mix, readers, err := openTraces(paths)
	if err != nil {
		return nil, err
	}
	req := sim.Request{
		Policy: polName, DeliWays: deliWays,
		Budget: budget, Prefetch: prefetch, Warmup: warmup, L2: l2, DRAM: dram,
	}
	if err := req.CheckShape(mix.Cores()); err != nil {
		return nil, err
	}
	cfg := sim.MachineConfig(req, mix.Cores())
	if deliWays < 0 {
		deliWays = 0
	}
	pol, err := sim.BuildPolicy(polName, mix.Cores(), cfg.LLC.Ways, deliWays)
	if err != nil {
		return nil, err
	}
	streams := make([]trace.Stream, len(readers))
	for i, r := range readers {
		streams[i] = r
	}
	sys := cpu.NewSystem(cfg, pol, streams)
	results := sys.Run()
	for i, r := range readers {
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", paths[i], err)
		}
	}
	return sim.Collect(mix, pol, cfg, budget, seed, results, sys), nil
}

// emit renders a result as JSON or as the classic text report.
func emit(res *sim.Result, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "nucache-sim:", err)
			os.Exit(1)
		}
		return
	}
	mix := workload.Mix{Name: res.Mix, Members: res.Members}
	t := metrics.NewTable(
		fmt.Sprintf("%s under %s (%d cores, %dMB LLC, %dM instr/core)",
			mix.String(), res.Policy, res.Cores, res.LLCBytes>>20, res.Budget/1_000_000),
		"core", "benchmark", "IPC", "L1 miss%", "LLC MPKI", "LLC hits", "LLC misses")
	for _, c := range res.PerCore {
		t.AddRow(
			fmt.Sprintf("%d", c.Core), c.Benchmark,
			metrics.F3(c.IPC),
			metrics.F2(100*c.L1MissRate),
			metrics.F2(c.LLCMPKI),
			fmt.Sprintf("%d", c.LLCHits),
			fmt.Sprintf("%d", c.LLCMisses),
		)
	}
	t.Render(os.Stdout)

	fmt.Printf("\nLLC: %d accesses, %.1f%% hit, %d evictions, %d writebacks\n",
		res.LLC.Accesses, 100*res.LLC.HitRate, res.LLC.Evictions, res.LLC.Writebacks)
	if res.DRAM != nil {
		fmt.Printf("DRAM: %d accesses, %.1f%% row-buffer hits\n", res.DRAM.Accesses, 100*res.DRAM.RowHitRate)
	}
	if res.PrefetchIssued > 0 {
		fmt.Printf("prefetches issued: %d\n", res.PrefetchIssued)
	}
	if nu := res.NUcache; nu != nil {
		fmt.Printf("NUcache: %d epochs, %d DeliWay hits, %d retained of %d demotions\n",
			nu.Epochs, nu.DeliHits, nu.DeliInsertions, nu.Demotions)
		fmt.Printf("last selection: %d of %d candidates chosen, projected lifetime %d, benefit %d\n",
			nu.LastChosen, nu.LastCandidates, nu.LastLifetime, nu.LastBenefit)
		if len(nu.ChosenPCs) > 0 {
			fmt.Println("chosen PCs:", strings.Join(nu.ChosenPCs, " "))
		}
	}
}

func printCatalog() {
	t := metrics.NewTable("benchmarks", "name", "class", "description")
	for _, b := range workload.All() {
		t.AddRow(b.Name, string(b.Class), b.Description)
	}
	t.Render(os.Stdout)
	fmt.Println()
	for _, cores := range workload.MixWidths() {
		t := metrics.NewTable(fmt.Sprintf("%d-core mixes", cores), "name", "members")
		for _, m := range workload.MixesFor(cores) {
			t.AddRow(m.Name, strings.Join(m.Members, " "))
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
}

// recordTraces dumps n accesses per core to <prefix>.coreN.trc in the
// compact binary trace format.
func recordTraces(prefix string, mix workload.Mix, streams []trace.Stream, n int) error {
	for i, s := range streams {
		path := fmt.Sprintf("%s.core%d.trc", prefix, i)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w, err := trace.NewWriter(f)
		if err != nil {
			f.Close()
			return err
		}
		written := 0
		for ; written < n; written++ {
			a, ok := s.Next()
			if !ok {
				break
			}
			if err := w.Write(a); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("recorded %d accesses of %s to %s\n", written, mix.Members[i], path)
	}
	return nil
}

// openTraces opens one trace reader per binary trace file.
func openTraces(paths []string) (workload.Mix, []*trace.Reader, error) {
	mix := workload.Mix{Name: "replay"}
	var readers []*trace.Reader
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return mix, nil, err
		}
		r, err := trace.NewReader(f)
		if err != nil {
			f.Close()
			return mix, nil, fmt.Errorf("%s: %w", p, err)
		}
		// Files stay open for the run's duration; the process exit
		// releases them (replay runs are one-shot).
		readers = append(readers, r)
		mix.Members = append(mix.Members, p)
	}
	return mix, readers, nil
}
