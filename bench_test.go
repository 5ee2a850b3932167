// Benchmarks that regenerate each of the paper's tables and figures at
// reduced scale (one bench per experiment; see DESIGN.md's index). For
// full-scale artifacts run cmd/nucache-bench. Micro-benchmarks for the
// simulator's hot paths are at the bottom.
package nucache_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/experiments"
	"nucache/internal/mrc"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/stats"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

// benchOpts keeps each experiment iteration around a second.
func benchOpts() experiments.Options {
	return experiments.Options{Budget: 200_000, Seed: 1, MixLimit: 2, BenchLimit: 6}
}

func BenchmarkE1DelinquentPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Delinquency(benchOpts()); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE2NextUse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.NextUseProfile(benchOpts()); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE3Potential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Potential(benchOpts()); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE5SingleCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.SingleCore(benchOpts()); r.Geomean <= 0 {
			b.Fatal("bad geomean")
		}
	}
}

func benchMulticore(b *testing.B, cores int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.MulticoreComparison(cores, benchOpts())
		if r.GeomeanNorm["NUcache"] <= 0 {
			b.Fatal("bad geomean")
		}
	}
}

func BenchmarkE6DualCore(b *testing.B)  { benchMulticore(b, 2) }
func BenchmarkE7QuadCore(b *testing.B)  { benchMulticore(b, 4) }
func BenchmarkE8EightCore(b *testing.B) { benchMulticore(b, 8) }

func benchSweep(b *testing.B, run func(experiments.Options) *experiments.SweepResult) {
	b.Helper()
	o := benchOpts()
	o.MixLimit = 1
	for i := 0; i < b.N; i++ {
		if r := run(o); len(r.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkE9DeliWays(b *testing.B) { benchSweep(b, experiments.DeliWaysSweep) }
func BenchmarkE10PCCount(b *testing.B) { benchSweep(b, experiments.PCCountSweep) }

func BenchmarkE11Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FairnessComparison(4, benchOpts())
		if len(r.Policies) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE12Epoch(b *testing.B)    { benchSweep(b, experiments.EpochSweep) }
func BenchmarkE13Sampling(b *testing.B) { benchSweep(b, experiments.SamplingSweep) }

func BenchmarkE14OPT(b *testing.B) {
	// E14 shares the Potential harness (NUcache-vs-OPT columns).
	for i := 0; i < b.N; i++ {
		if r := experiments.Potential(benchOpts()); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- Simulator hot-path micro-benchmarks ---

// accessLoop drives n accesses of a synthetic mixed pattern through a
// 1MB LLC-configured cache, reporting ns/access.
func accessLoop(b *testing.B, pol cache.Policy) {
	b.Helper()
	c := cache.New(cache.Config{
		Name: "bench", SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, Cores: 1,
	}, pol)
	req := cache.Request{Kind: trace.Load}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i)
		req.Addr = (v * 2654435761) % (4 << 20) &^ 63
		req.PC = 0x400000 + (v%9)*4
		c.Access(&req)
	}
}

// The HotAccess* benchmarks are the per-access-path regression gate: CI
// runs `go test -bench=Hot -benchmem` on base and head and fails on >10%
// ns/op or allocation regressions (see .github/workflows/ci.yml and
// cmd/benchgate). Keep the Hot prefix when adding hot-path benchmarks.
func BenchmarkHotAccessLRU(b *testing.B) { accessLoop(b, policy.NewLRU()) }
func BenchmarkHotAccessNUcache(b *testing.B) {
	accessLoop(b, core.MustNew(core.DefaultConfig(16)))
}
func BenchmarkHotAccessUCP(b *testing.B)  { accessLoop(b, policy.NewUCP(1, 16)) }
func BenchmarkHotAccessPIPP(b *testing.B) { accessLoop(b, policy.NewPIPP(1, 16, 1)) }
func BenchmarkHotAccessDRRIP(b *testing.B) {
	accessLoop(b, policy.NewDRRIP(1))
}
func BenchmarkHotAccessTADIP(b *testing.B) { accessLoop(b, policy.NewTADIP(2, 1)) }
func BenchmarkHotAccessPart(b *testing.B) {
	accessLoop(b, policy.NewStaticPart(policy.EvenSplit(1, 16)))
}

// BenchmarkHotReplayStep measures the replay half of the record/replay
// engine: one fully recorded single-core tape, replayed under a fresh
// LRU LLC each iteration. Also reports ns/event (LLC-bound events per
// replay are fixed, so the two metrics move together); the CI bench gate
// watches ns/op like the other Hot benchmarks.
func BenchmarkHotReplayStep(b *testing.B) {
	cfg := cpu.DefaultConfig(1)
	cfg.InstrBudget = 200_000
	tape := cpu.NewTape(cfg, workload.MustByName("ammp-like").Stream(1))
	var events uint64
	run := func() {
		rs := cpu.NewReplaySystem(cfg, policy.NewLRU(), []*cpu.Tape{tape})
		res, err := rs.Run()
		if err != nil {
			b.Fatal(err)
		}
		events = res[0].LLCAccesses
	}
	run() // record the tape outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	}
}

// BenchmarkHotRecord measures the record half of the record/replay
// engine: each iteration records a fresh tape of omnetpp-like, a model
// that draws its references from the Zipf sampler, up to its budget
// crossing — the workload generator and the private hierarchy, walked
// by a visitor that only counts. Also reports ns/event per LLC-bound
// event delivered; the last chunk's overshoot past the crossing is
// recorded too, so the figure slightly overstates a recorded event's
// cost.
func BenchmarkHotRecord(b *testing.B) {
	cfg := cpu.DefaultConfig(1)
	cfg.InstrBudget = 1_000_000
	bench := workload.MustByName("omnetpp-like")
	var v recordVisitor
	for i := 0; i < b.N; i++ {
		v.events = 0
		if err := cpu.WalkTape(cfg, 0, cpu.NewTape(cfg, bench.Stream(1)), &v); err != nil {
			b.Fatal(err)
		}
	}
	if v.events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(v.events), "ns/event")
	}
}

// recordVisitor counts the demand accesses of a tape walk and stops it
// at the budget crossing.
type recordVisitor struct{ events uint64 }

func (v *recordVisitor) Access(_, _ uint64, _ trace.Kind, demand bool) {
	if demand {
		v.events++
	}
}

func (v *recordVisitor) Crossing(cr trace.Crossing) bool { return cr.Kind != trace.CrossRecord }

// gridBenchSetup records an E6-shaped dual-core tape set (the first
// standard 2-core mix at bench budget) and returns builders for the
// standard policy lineup — the workload of the grid replay gate.
func gridBenchSetup(b *testing.B) (cpu.Config, []*cpu.Tape, func() []cache.Policy) {
	b.Helper()
	cfg := cpu.DefaultConfig(2)
	cfg.InstrBudget = 200_000
	mix := workload.MixesFor(2)[0]
	tapes := make([]*cpu.Tape, len(mix.Members))
	for i, name := range mix.Members {
		tapes[i] = cpu.NewTape(cfg, workload.MustByName(name).Stream(1+uint64(i)))
	}
	specs := experiments.StandardPolicies()
	pols := func() []cache.Policy {
		out := make([]cache.Policy, len(specs))
		for i, s := range specs {
			out[i] = s.New(cfg.Cores, cfg.LLC.Ways)
		}
		return out
	}
	// Record the tapes outside any timed region.
	if _, err := cpu.NewMultiReplaySystem(cfg, pols(), tapes).Run(); err != nil {
		b.Fatal(err)
	}
	return cfg, tapes, pols
}

// BenchmarkGridReplay replays the whole standard policy grid as one
// MultiReplaySystem — N independent single-policy replays, one after
// another. ns/op is gated against regressions like the Hot* benchmarks.
func BenchmarkGridReplay(b *testing.B) {
	cfg, tapes, pols := gridBenchSetup(b)
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		ms := cpu.NewMultiReplaySystem(cfg, pols(), tapes)
		res, err := ms.Run()
		if err != nil {
			b.Fatal(err)
		}
		events = 0
		for _, laneRes := range res {
			for _, r := range laneRes {
				events += r.LLCAccesses
			}
		}
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event-lane")
	}
}

// BenchmarkGridReplayParallel replays the same grid with lanes on
// worker goroutines (one per available CPU, capped at the lane count).
// On a single-CPU runner RunParallel degrades to serial Run, so the CI
// floor against BenchmarkGridReplay is 1.00 — no regression — rather
// than a speedup demand the runner cannot meet.
func BenchmarkGridReplayParallel(b *testing.B) {
	cfg, tapes, pols := gridBenchSetup(b)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := cpu.NewMultiReplaySystem(cfg, pols(), tapes)
		if _, err := ms.RunParallel(workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemThroughput measures end-to-end simulated accesses/sec of
// the full hierarchy on a real workload model.
func BenchmarkSystemThroughput(b *testing.B) {
	bench := workload.MustByName("ammp-like")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cpu.DefaultConfig(1)
		cfg.InstrBudget = 500_000
		sys := cpu.NewSystem(cfg, policy.NewLRU(), []trace.Stream{bench.Stream(1)})
		sys.Run()
	}
}

// BenchmarkWorkloadGeneration isolates the synthetic generator cost.
func BenchmarkWorkloadGeneration(b *testing.B) {
	s := workload.MustByName("omnetpp-like").Stream(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}

// BenchmarkHotZipf draws from the Zipf sampler at the four (n, s)
// pairs the workload models use, one pair after another — the front
// end's per-reference sampling cost, gated like the other Hot
// benchmarks.
func BenchmarkHotZipf(b *testing.B) {
	rng := stats.NewRNG(1)
	zs := []*stats.Zipf{
		stats.NewZipf(rng.Split(), 4096, 0.6),  // sphinx-like
		stats.NewZipf(rng.Split(), 24576, 0.9), // omnetpp-like
		stats.NewZipf(rng.Split(), 3072, 1.1),  // twolf-like
		stats.NewZipf(rng.Split(), 1536, 0.9),  // vpr-like
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zipfSink += zs[i&3].Next()
	}
}

// zipfSink keeps BenchmarkHotZipf's draws live.
var zipfSink uint64

// adviseProfile is the profile the HotAdvise benchmarks search: a
// 4-core 16-way mix at the budget and seed serve-hot profiles, built
// once per test binary.
var adviseProfile = sync.OnceValues(func() (*mrc.Profile, error) {
	return sim.ExecuteProfile(context.Background(),
		sim.ProfileRequest{Mix: "mix4-01", Budget: 100_000, Seed: 5007})
})

// adviseLoop times search over the adviseProfile.
func adviseLoop(b *testing.B, search func(*mrc.Profile) (*mrc.Prediction, error)) {
	p, err := adviseProfile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotAdviseBestPartition is one /v1/advise best-partition
// answer: the exhaustive search over the 455 compositions of its 16
// ways.
func BenchmarkHotAdviseBestPartition(b *testing.B) { adviseLoop(b, mrc.BestPartition) }

// BenchmarkHotAdviseBestDeliWays is one /v1/advise best-DeliWays
// answer: NUcache's model at each of the 16 splits.
func BenchmarkHotAdviseBestDeliWays(b *testing.B) { adviseLoop(b, mrc.BestDeliWays) }

// BenchmarkSelection isolates the cost-benefit PC selection.
func BenchmarkSelection(b *testing.B) {
	cfg := core.MustNew(core.Config{Ways: 16, DeliWays: 6}).Config()
	mon := core.NewMonitor(cfg)
	for pc := uint64(1); pc <= 32; pc++ {
		for i := 0; i < 100; i++ {
			mon.OnMiss(0, pc)
			mon.OnDemotion(0, pc*1000+uint64(i), pc)
			mon.OnAccess(0, pc*1000+uint64(i))
		}
	}
	cands := mon.TopCandidates(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SelectPCs(cands, 6, mon.SampledMisses(), 32, 1)
	}
}

func BenchmarkE16IdealRetention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.IdealRetention(benchOpts()); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE17Prefetch(b *testing.B) {
	o := benchOpts()
	o.MixLimit = 1
	for i := 0; i < b.N; i++ {
		if r := experiments.PrefetchStudy(o); r.GainPf <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkE18DRAM(b *testing.B) {
	o := benchOpts()
	o.MixLimit = 1
	for i := 0; i < b.N; i++ {
		if r := experiments.DRAMStudy(o); r.Points[1].Geomean <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkE19Extended(b *testing.B) {
	o := benchOpts()
	o.MixLimit = 1
	for i := 0; i < b.N; i++ {
		if r := experiments.ExtendedComparison(2, o); len(r.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE20Adaptive(b *testing.B) {
	o := benchOpts()
	o.MixLimit = 1
	for i := 0; i < b.N; i++ {
		if r := experiments.AdaptiveStudy(o); r.Points[1].Geomean <= 0 {
			b.Fatal("bad result")
		}
	}
}
