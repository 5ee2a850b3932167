package cpu_test

// Differential suite for the record/replay engine: for every LLC policy
// the service can build and a spread of machine shapes (private L2,
// warm-up, prefetching, DRAM, uneven stream exhaustion), a replayed run
// must be bit-identical to the direct simulation — per-core results,
// full LLC statistics, prefetch counts and DRAM state. CI runs this
// suite by name (with -race) before the full test run.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/memory"
	"nucache/internal/sim"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

// replayCase is one machine shape plus the streams driving it. streams
// must return fresh, identical streams on every call: the direct run and
// the tape recording each consume their own copy.
type replayCase struct {
	name    string
	cfg     cpu.Config
	streams func() []trace.Stream
}

func benchStreams(names ...string) func() []trace.Stream {
	return func() []trace.Stream {
		out := make([]trace.Stream, len(names))
		for i, n := range names {
			out[i] = workload.MustByName(n).Stream(7 + uint64(i))
		}
		return out
	}
}

func smallConfig(cores int) cpu.Config {
	return cpu.Config{
		Cores:       cores,
		L1:          cache.Config{SizeBytes: 2 << 10, Ways: 2, LineBytes: 64},
		LLC:         cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64},
		L1Latency:   1,
		LLCLatency:  10,
		MemLatency:  100,
		InstrBudget: 30_000,
	}
}

func replayCases() []replayCase {
	base := replayCase{
		name:    "flat",
		cfg:     smallConfig(2),
		streams: benchStreams("art-like", "swim-like"),
	}

	l2 := base
	l2.name = "privateL2"
	l2.cfg.L2 = cache.Config{SizeBytes: 8 << 10, Ways: 4, LineBytes: 64}
	l2.cfg.L2Latency = 6

	warm := base
	warm.name = "warmup"
	warm.cfg.WarmupInstr = 10_000

	pf := base
	pf.name = "prefetch"
	pf.cfg.PrefetchDegree = 2

	dram := base
	dram.name = "dram"
	d := memory.DefaultConfig()
	dram.cfg.DRAM = &d

	// Uneven exhaustion: no budget, finite streams of different lengths,
	// so cores stop one by one and the early finishers' record points
	// come from their exhaustion crossings.
	exhaust := replayCase{
		name: "exhaustion",
		cfg:  smallConfig(2),
		streams: func() []trace.Stream {
			return []trace.Stream{
				trace.NewLimitStream(workload.MustByName("ammp-like").Stream(3), 4_000),
				trace.NewLimitStream(workload.MustByName("mcf-like").Stream(4), 9_000),
			}
		},
	}
	exhaust.cfg.InstrBudget = 0

	// One member exhausts before the others reach their budget: mixes
	// record-at-budget and record-at-exhaustion in one run.
	mixedEnd := replayCase{
		name: "budget-and-exhaustion",
		cfg:  smallConfig(2),
		streams: func() []trace.Stream {
			return []trace.Stream{
				trace.NewLimitStream(workload.MustByName("art-like").Stream(5), 5_000),
				workload.MustByName("milc-like").Stream(6),
			}
		},
	}

	sink := replayCase{
		name:    "L2+warmup+prefetch+dram",
		cfg:     smallConfig(3),
		streams: benchStreams("art-like", "ammp-like", "libquantum-like"),
	}
	sink.cfg.L2 = cache.Config{SizeBytes: 8 << 10, Ways: 4, LineBytes: 64}
	sink.cfg.L2Latency = 6
	sink.cfg.WarmupInstr = 8_000
	sink.cfg.PrefetchDegree = 1
	d2 := memory.DefaultConfig()
	sink.cfg.DRAM = &d2

	return []replayCase{base, l2, warm, pf, dram, exhaust, mixedEnd, sink}
}

// runDirect runs the reference simulation.
func runDirect(t *testing.T, tc replayCase, polName string) ([]cpu.CoreResult, *cpu.System) {
	t.Helper()
	pol, err := sim.BuildPolicy(polName, tc.cfg.Cores, tc.cfg.LLC.Ways, 0)
	if err != nil {
		t.Fatalf("build %s: %v", polName, err)
	}
	sys := cpu.NewSystem(tc.cfg, pol, tc.streams())
	return sys.Run(), sys
}

func runReplay(t *testing.T, tc replayCase, polName string, tapes []*cpu.Tape) ([]cpu.CoreResult, *cpu.ReplaySystem) {
	t.Helper()
	pol, err := sim.BuildPolicy(polName, tc.cfg.Cores, tc.cfg.LLC.Ways, 0)
	if err != nil {
		t.Fatalf("build %s: %v", polName, err)
	}
	rs := cpu.NewReplaySystem(tc.cfg, pol, tapes)
	res, err := rs.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return res, rs
}

func makeTapes(tc replayCase) []*cpu.Tape {
	streams := tc.streams()
	tapes := make([]*cpu.Tape, len(streams))
	for i, s := range streams {
		tapes[i] = cpu.NewTape(tc.cfg, s)
	}
	return tapes
}

// compareRuns asserts bit-identical outcomes between a direct system and
// a replay over the same machine.
func compareRuns(t *testing.T, dRes, rRes []cpu.CoreResult, d *cpu.System, r *cpu.ReplaySystem) {
	t.Helper()
	if !reflect.DeepEqual(dRes, rRes) {
		t.Errorf("core results diverge\ndirect: %+v\nreplay: %+v", dRes, rRes)
	}
	if !reflect.DeepEqual(d.LLC().Stats, r.LLC().Stats) {
		t.Errorf("LLC stats diverge\ndirect: %+v\nreplay: %+v", d.LLC().Stats, r.LLC().Stats)
	}
	if d.PrefetchIssued != r.PrefetchIssued {
		t.Errorf("prefetches diverge: direct %d, replay %d", d.PrefetchIssued, r.PrefetchIssued)
	}
	if d.Writebacks != r.Writebacks {
		t.Errorf("writebacks diverge: direct %d, replay %d", d.Writebacks, r.Writebacks)
	}
	dd, rd := d.DRAM(), r.DRAM()
	if (dd == nil) != (rd == nil) {
		t.Fatalf("DRAM presence diverges")
	}
	if dd != nil && (dd.Accesses != rd.Accesses || dd.RowHits != rd.RowHits) {
		t.Errorf("DRAM diverges: direct %d/%d, replay %d/%d",
			dd.Accesses, dd.RowHits, rd.Accesses, rd.RowHits)
	}
}

// TestReplayMatchesDirect is the core bit-exactness guarantee: every
// policy, every machine shape. Tapes are shared across all policies of a
// case, so it also proves a tape replays cleanly many times over.
func TestReplayMatchesDirect(t *testing.T) {
	for _, tc := range replayCases() {
		t.Run(tc.name, func(t *testing.T) {
			tapes := makeTapes(tc)
			for _, polName := range sim.Policies() {
				t.Run(polName, func(t *testing.T) {
					dRes, d := runDirect(t, tc, polName)
					rRes, r := runReplay(t, tc, polName, tapes)
					compareRuns(t, dRes, rRes, d, r)
				})
			}
		})
	}
}

// TestReplayConcurrentTapeSharing replays one tape set from many
// goroutines at once: the lazily-extended tape must be safe for
// concurrent cursors (run under -race in CI).
func TestReplayConcurrentTapeSharing(t *testing.T) {
	tc := replayCases()[0]
	tapes := makeTapes(tc)
	dRes, d := runDirect(t, tc, "LRU")
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pol, _ := sim.BuildPolicy("LRU", tc.cfg.Cores, tc.cfg.LLC.Ways, 0)
			rs := cpu.NewReplaySystem(tc.cfg, pol, tapes)
			res, err := rs.Run()
			if err != nil {
				errs <- fmt.Sprintf("replay: %v", err)
				return
			}
			if !reflect.DeepEqual(dRes, res) {
				errs <- "concurrent replay diverged from direct run"
			}
			if !reflect.DeepEqual(d.LLC().Stats, rs.LLC().Stats) {
				errs <- "concurrent replay LLC stats diverged"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestReplayTapeBudgetFallback: once the process tape budget is
// exhausted, AcquireTape refuses new tapes (the sim layer then falls
// back to direct simulation).
func TestReplayTapeBudgetFallback(t *testing.T) {
	old := cpu.SetTapeBudget(0) // nothing fits
	defer cpu.SetTapeBudget(old)
	if _, err := cpu.AcquireTape("budget-test@1", smallConfig(1), func() trace.Stream {
		t.Fatal("open must not be called once the budget is exhausted")
		return nil
	}); err == nil {
		t.Fatal("AcquireTape should refuse new tapes past the budget")
	}
	// A tape that exists already (here: built directly) stops extending
	// once the budget is gone; its replays must report an error instead
	// of fabricating results.
	tape := cpu.NewTape(smallConfig(1), workload.MustByName("art-like").Stream(1))
	pol, _ := sim.BuildPolicy("LRU", 1, smallConfig(1).LLC.Ways, 0)
	rs := cpu.NewReplaySystem(smallConfig(1), pol, []*cpu.Tape{tape})
	if _, err := rs.Run(); err == nil {
		t.Fatal("replay over a budget-starved tape should fail, not fabricate results")
	}
}

// TestReplayDecodeBudgetStreaming: a tape whose recording meets the
// memory cap mid-tape (tapes die once all pages reach twice the cap)
// fails its replays, which never fabricate results, and RunMachine,
// whose tape dies the same way, returns exactly the direct simulation's
// results. The tape's one cap covers the event pages that a separate
// decode budget once bounded, so no replay streams past it.
func TestReplayDecodeBudgetStreaming(t *testing.T) {
	cfg := smallConfig(1)
	cfg.InstrBudget = 120_000
	const bench, seed = "mcf-like", 11
	mix := workload.Mix{Name: "budget", Members: []string{bench}}
	newPol := func() cache.Policy {
		p, _ := sim.BuildPolicy("LRU", 1, cfg.LLC.Ways, 0)
		return p
	}
	// Each phase leaves the tapes recorded so far room for two extensions
	// (one 128KB event page plus one 64KB writeback page each) before the
	// next one meets twice the cap.
	lowerCap := func() { cpu.SetTapeBudget(cpu.TapeBytes()/2 + 200<<10) }
	defer cpu.SetTapeBudget(cpu.SetTapeBudget(cpu.DefaultTapeBudget))
	cpu.ResetTapes()
	t.Cleanup(cpu.ResetTapes)

	lowerCap()
	tape := cpu.NewTape(cfg, workload.MustByName(bench).Stream(seed))
	rs := cpu.NewReplaySystem(cfg, newPol(), []*cpu.Tape{tape})
	if res, err := rs.Run(); err == nil || res != nil {
		t.Fatalf("replay past the cap = %v, %v; want an error and nil results", res, err)
	}
	if events, _ := cpu.TapeRecords(tape); events == 0 {
		t.Fatal("the cap refused the first extension; want it met mid-tape")
	}

	// RunMachine keys a mix's first tape "bench@seed". Acquiring it under
	// the default cap hands RunMachine an empty memoized tape, so its
	// recording, not its acquisition, meets the lowered cap.
	cpu.SetTapeBudget(cpu.DefaultTapeBudget)
	memo, err := cpu.AcquireTape(fmt.Sprintf("%s@%d", bench, seed), cfg,
		func() trace.Stream { return workload.MustByName(bench).Stream(seed) })
	if err != nil {
		t.Fatal(err)
	}
	lowerCap()
	fallbacks := sim.TraceFallbacks.Value()
	got, _, _ := sim.RunMachine(cfg, newPol, mix, seed, false)
	if sim.TraceFallbacks.Value() != fallbacks+1 {
		t.Fatal("RunMachine did not fall back from the capped tape")
	}
	if events, _ := cpu.TapeRecords(memo); events == 0 {
		t.Fatal("the memoized tape never recorded; want the cap met mid-tape")
	}
	want, _, _ := sim.RunMachine(cfg, newPol, mix, seed, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback diverges from direct simulation\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestTapePageBitFlipFallsBackToDirect: one flipped bit in the event
// records of a memoized tape fails every replay of it, and RunMachine
// falls back to direct simulation with the clean run's results.
func TestTapePageBitFlipFallsBackToDirect(t *testing.T) {
	cfg := smallConfig(1)
	const bench, seed = "art-like", 5
	mix := workload.Mix{Name: "flip", Members: []string{bench}}
	newPol := func() cache.Policy {
		p, _ := sim.BuildPolicy("LRU", 1, cfg.LLC.Ways, 0)
		return p
	}
	cpu.ResetTapes()
	t.Cleanup(cpu.ResetTapes)

	want, _, _ := sim.RunMachine(cfg, newPol, mix, seed, false) // records the tape
	tape := cpu.LookupTape(fmt.Sprintf("%s@%d", bench, seed), cfg)
	if tape == nil {
		t.Fatal("RunMachine memoized no tape")
	}
	// Flip a set-index bit of the last event, in the frame the tape's
	// last extension sealed: the next replay's first view re-verifies it.
	events, _ := cpu.TapeRecords(tape)
	cpu.FlipTapeBit(tape, false, events-1, 12)

	fallbacks := sim.TraceFallbacks.Value()
	got, _, _ := sim.RunMachine(cfg, newPol, mix, seed, false)
	if sim.TraceFallbacks.Value() != fallbacks+1 {
		t.Fatal("RunMachine replayed a corrupt tape instead of falling back")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback diverges from the clean run\ngot:  %+v\nwant: %+v", got, want)
	}
	rs := cpu.NewReplaySystem(cfg, newPol(), []*cpu.Tape{tape})
	if res, err := rs.Run(); err == nil || res != nil {
		t.Fatalf("replay of a corrupt tape = %v, %v; want an error and nil results", res, err)
	}
}

// TestReplayUntaggableStreamFallback: streams outside the core-tagging
// range poison the tape with an error instead of replaying wrong state.
func TestReplayUntaggableStreamFallback(t *testing.T) {
	cfg := smallConfig(1)
	bad := trace.NewSliceStream([]trace.Access{
		{Addr: 1 << 45, PC: 0x400000, Kind: trace.Load},
	})
	tape := cpu.NewTape(cfg, bad)
	pol, _ := sim.BuildPolicy("LRU", 1, cfg.LLC.Ways, 0)
	rs := cpu.NewReplaySystem(cfg, pol, []*cpu.Tape{tape})
	if _, err := rs.Run(); err == nil {
		t.Fatal("untaggable stream must fail the replay")
	}
}
