package cpu_test

// Grid-differential suite for the multi-policy replay: every lane of a
// MultiReplaySystem must be byte-identical to (a) a standalone
// single-policy replay of the same tapes and (b) the direct
// simulation — for every policy the service can build, across the same
// 8 machine shapes as the single-policy suite — and a lane's results
// must be invariant under lane reordering and grid subsetting. CI runs
// this suite by name (with -race) before the full test run.

import (
	"reflect"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/sim"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

// buildLanes constructs fresh policy instances for the named lanes
// (policies are stateful, so every engine needs its own set).
func buildLanes(t *testing.T, tc replayCase, names []string) []cache.Policy {
	t.Helper()
	pols := make([]cache.Policy, len(names))
	for i, n := range names {
		p, err := sim.BuildPolicy(n, tc.cfg.Cores, tc.cfg.LLC.Ways, 0)
		if err != nil {
			t.Fatalf("build %s: %v", n, err)
		}
		pols[i] = p
	}
	return pols
}

// runGrid replays one multi-policy grid over tapes and returns the
// per-lane results plus the system for machine-surface inspection.
func runGrid(t *testing.T, tc replayCase, names []string, tapes []*cpu.Tape) ([][]cpu.CoreResult, *cpu.MultiReplaySystem) {
	t.Helper()
	ms := cpu.NewMultiReplaySystem(tc.cfg, buildLanes(t, tc, names), tapes)
	res, err := ms.Run()
	if err != nil {
		t.Fatalf("multi replay: %v", err)
	}
	return res, ms
}

// compareLane asserts lane li of a multi-policy run is bit-identical to
// a reference machine over the same tapes (a single-policy ReplaySystem
// or a direct System): per-core results, full LLC statistics, prefetch
// and writeback counters, and DRAM state.
func compareLane(t *testing.T, ms *cpu.MultiReplaySystem, li int, laneRes []cpu.CoreResult,
	refRes []cpu.CoreResult, ref cpu.Machine, refWB, refPF uint64) {
	t.Helper()
	lane := ms.Lane(li)
	if !reflect.DeepEqual(refRes, laneRes) {
		t.Errorf("lane %d core results diverge\nref:  %+v\nlane: %+v", li, refRes, laneRes)
	}
	if !reflect.DeepEqual(ref.LLC().Stats, lane.LLC().Stats) {
		t.Errorf("lane %d LLC stats diverge\nref:  %+v\nlane: %+v", li, ref.LLC().Stats, lane.LLC().Stats)
	}
	if refPF != lane.Prefetches() {
		t.Errorf("lane %d prefetches diverge: ref %d, lane %d", li, refPF, lane.Prefetches())
	}
	if refWB != ms.LaneWritebacks(li) {
		t.Errorf("lane %d writebacks diverge: ref %d, lane %d", li, refWB, ms.LaneWritebacks(li))
	}
	rd, ld := ref.DRAM(), lane.DRAM()
	if (rd == nil) != (ld == nil) {
		t.Fatalf("lane %d DRAM presence diverges", li)
	}
	if rd != nil && (rd.Accesses != ld.Accesses || rd.RowHits != ld.RowHits) {
		t.Errorf("lane %d DRAM diverges: ref %d/%d, lane %d/%d",
			li, rd.Accesses, rd.RowHits, ld.Accesses, ld.RowHits)
	}
}

// TestMultiReplayMatchesSingleAndDirect is the tentpole guarantee:
// every policy lane of a full-lineup grid, on every machine shape, is
// byte-identical both to a standalone single-policy replay and to the
// direct simulation. Tapes are shared between the grid and the single
// replays, so it also proves the multi walk leaves tapes replayable.
func TestMultiReplayMatchesSingleAndDirect(t *testing.T) {
	for _, tc := range replayCases() {
		t.Run(tc.name, func(t *testing.T) {
			names := sim.Policies()
			tapes := makeTapes(tc)
			res, ms := runGrid(t, tc, names, tapes)
			if len(res) != len(names) {
				t.Fatalf("got %d lanes for %d policies", len(res), len(names))
			}
			for li, polName := range names {
				t.Run(polName, func(t *testing.T) {
					sRes, s := runReplay(t, tc, polName, tapes)
					compareLane(t, ms, li, res[li], sRes, s, s.Writebacks, s.PrefetchIssued)
					dRes, d := runDirect(t, tc, polName)
					compareLane(t, ms, li, res[li], dRes, d, d.Writebacks, d.PrefetchIssued)
				})
			}
		})
	}
}

// TestMultiReplayLaneArrangementInvariance is the property pin: a
// lane's results depend only on its own policy — not on lane order, not
// on which other lanes share the grid, not on duplicate siblings.
func TestMultiReplayLaneArrangementInvariance(t *testing.T) {
	tc := replayCases()[7] // L2+warmup+prefetch+dram: the richest shape
	names := sim.Policies()
	tapes := makeTapes(tc)

	full, _ := runGrid(t, tc, names, tapes)
	want := map[string][]cpu.CoreResult{}
	for i, n := range names {
		want[n] = full[i]
	}

	// Reversed lane order.
	rev := make([]string, len(names))
	for i, n := range names {
		rev[len(names)-1-i] = n
	}
	revRes, _ := runGrid(t, tc, rev, tapes)
	for i, n := range rev {
		if !reflect.DeepEqual(want[n], revRes[i]) {
			t.Errorf("%s diverges when lanes are reversed", n)
		}
	}

	// Every proper subset of adjacent lanes, including singletons.
	for lo := 0; lo < len(names); lo++ {
		for hi := lo + 1; hi <= len(names); hi++ {
			if lo == 0 && hi == len(names) {
				continue
			}
			sub := names[lo:hi]
			subRes, _ := runGrid(t, tc, sub, tapes)
			for i, n := range sub {
				if !reflect.DeepEqual(want[n], subRes[i]) {
					t.Errorf("%s diverges in subset %v", n, sub)
				}
			}
		}
	}

	// Duplicate lanes of one policy must be identical to each other and
	// to the full-grid lane (no cross-lane state leaks).
	dup := []string{names[0], names[1], names[0]}
	dupRes, _ := runGrid(t, tc, dup, tapes)
	if !reflect.DeepEqual(dupRes[0], dupRes[2]) {
		t.Errorf("duplicate %s lanes diverge from each other", names[0])
	}
	if !reflect.DeepEqual(want[names[0]], dupRes[0]) {
		t.Errorf("duplicate %s lane diverges from full grid", names[0])
	}
}

// runGridParallel is runGrid with lanes stepped on worker goroutines.
func runGridParallel(t *testing.T, tc replayCase, names []string, tapes []*cpu.Tape, workers int) ([][]cpu.CoreResult, *cpu.MultiReplaySystem) {
	t.Helper()
	ms := cpu.NewMultiReplaySystem(tc.cfg, buildLanes(t, tc, names), tapes)
	res, err := ms.RunParallel(workers)
	if err != nil {
		t.Fatalf("parallel multi replay: %v", err)
	}
	return res, ms
}

// TestMultiReplayParallelMatchesSerialAndSingle extends the tentpole
// guarantee to parallel lane stepping: every policy lane of a grid run
// on worker goroutines, on every machine shape, is byte-identical to
// the serial grid, to a standalone single-policy replay, and to the
// direct simulation. CI runs this by name under -race.
func TestMultiReplayParallelMatchesSerialAndSingle(t *testing.T) {
	for _, tc := range replayCases() {
		t.Run(tc.name, func(t *testing.T) {
			names := sim.Policies()
			tapes := makeTapes(tc)
			serial, _ := runGrid(t, tc, names, tapes)
			par, ms := runGridParallel(t, tc, names, tapes, 3)
			for li, polName := range names {
				t.Run(polName, func(t *testing.T) {
					if !reflect.DeepEqual(serial[li], par[li]) {
						t.Errorf("parallel lane diverges from serial grid\nserial: %+v\npar:    %+v",
							serial[li], par[li])
					}
					sRes, s := runReplay(t, tc, polName, tapes)
					compareLane(t, ms, li, par[li], sRes, s, s.Writebacks, s.PrefetchIssued)
					dRes, d := runDirect(t, tc, polName)
					compareLane(t, ms, li, par[li], dRes, d, d.Writebacks, d.PrefetchIssued)
				})
			}
		})
	}
}

// TestMultiReplayParallelStreamingWindow lowers the tape memory cap so
// that shared tapes meet it mid-tape while lanes on worker goroutines
// extend them: every lane fails, the grid returns nil results (never
// partial ones), and a serial grid over the same tapes fails the same
// way. CI runs this by name under -race.
func TestMultiReplayParallelStreamingWindow(t *testing.T) {
	defer cpu.SetTapeBudget(cpu.SetTapeBudget(cpu.TapeBytes()/2 + 600<<10))

	tc := replayCase{
		name:    "tape-cap",
		cfg:     smallConfig(2),
		streams: benchStreams("mcf-like", "milc-like"),
	}
	tc.cfg.InstrBudget = 120_000

	names := sim.Policies()
	tapes := makeTapes(tc)
	ms := cpu.NewMultiReplaySystem(tc.cfg, buildLanes(t, tc, names), tapes)
	if res, err := ms.RunParallel(len(names)); err == nil || res != nil {
		t.Fatalf("parallel grid past the cap = %v, %v; want an error and nil results", res, err)
	}
	for i, tape := range tapes {
		if events, _ := cpu.TapeRecords(tape); events == 0 {
			t.Fatalf("tape %d: the cap refused its first extension; want it met mid-tape", i)
		}
	}
	ms = cpu.NewMultiReplaySystem(tc.cfg, buildLanes(t, tc, names), tapes)
	if res, err := ms.Run(); err == nil || res != nil {
		t.Fatalf("serial grid over the capped tapes = %v, %v; want an error and nil results", res, err)
	}
}

// TestMultiReplayParallelWorkerCounts pins the clamps: zero, one, the
// lane count, and an oversubscribed worker count all produce identical
// results (0 and 1 degrade to the serial path; extras are clamped).
func TestMultiReplayParallelWorkerCounts(t *testing.T) {
	tc := replayCases()[7] // L2+warmup+prefetch+dram: the richest shape
	names := sim.Policies()
	tapes := makeTapes(tc)
	want, _ := runGrid(t, tc, names, tapes)
	for _, workers := range []int{0, 1, 2, len(names), 4 * len(names)} {
		got, _ := runGridParallel(t, tc, names, tapes, workers)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("results diverge with %d workers", workers)
		}
	}
}

// TestMultiReplayParallelNilResultsOnError pins the parallel error
// contract: a failed grid returns nil results, never partial ones.
func TestMultiReplayParallelNilResultsOnError(t *testing.T) {
	old := cpu.SetTapeBudget(0) // recording dies immediately
	defer cpu.SetTapeBudget(old)
	cfg := smallConfig(1)
	pols := buildLanes(t, replayCase{cfg: cfg}, []string{"LRU", "NUcache", "UCP"})
	ms := cpu.NewMultiReplaySystem(cfg, pols, []*cpu.Tape{cpu.NewTape(cfg, workload.MustByName("art-like").Stream(1))})
	res, err := ms.RunParallel(3)
	if err == nil {
		t.Fatal("parallel grid over a budget-starved tape should fail")
	}
	if res != nil {
		t.Fatalf("failed parallel grid returned non-nil results: %+v", res)
	}
}

// TestReplayRunNilResultsOnError pins the error contract of both Run
// paths: a failed replay returns nil results — never a partially
// populated slice — so callers can trust `res != nil` as success.
func TestReplayRunNilResultsOnError(t *testing.T) {
	old := cpu.SetTapeBudget(0) // recording dies immediately
	defer cpu.SetTapeBudget(old)
	cfg := smallConfig(1)
	newTape := func() *cpu.Tape {
		return cpu.NewTape(cfg, workload.MustByName("art-like").Stream(1))
	}

	pol, _ := sim.BuildPolicy("LRU", 1, cfg.LLC.Ways, 0)
	rs := cpu.NewReplaySystem(cfg, pol, []*cpu.Tape{newTape()})
	res, err := rs.Run()
	if err == nil {
		t.Fatal("replay over a budget-starved tape should fail")
	}
	if res != nil {
		t.Fatalf("failed Run returned non-nil results: %+v", res)
	}

	mPols := buildLanes(t, replayCase{cfg: cfg}, []string{"LRU", "NUcache"})
	ms := cpu.NewMultiReplaySystem(cfg, mPols, []*cpu.Tape{newTape()})
	mRes, err := ms.Run()
	if err == nil {
		t.Fatal("multi replay over a budget-starved tape should fail")
	}
	if mRes != nil {
		t.Fatalf("failed multi Run returned non-nil results: %+v", mRes)
	}
}

// TestMultiReplayUntaggableStream mirrors the single-policy fallback
// test: a stream outside the core-tagging range fails the whole grid
// with an error, never a panic or partial results.
func TestMultiReplayUntaggableStream(t *testing.T) {
	cfg := smallConfig(1)
	bad := trace.NewSliceStream([]trace.Access{
		{Addr: 1 << 45, PC: 0x400000, Kind: trace.Load},
	})
	tape := cpu.NewTape(cfg, bad)
	pols := buildLanes(t, replayCase{cfg: cfg}, []string{"LRU", "NUcache", "UCP"})
	ms := cpu.NewMultiReplaySystem(cfg, pols, []*cpu.Tape{tape})
	res, err := ms.Run()
	if err == nil {
		t.Fatal("untaggable stream must fail the grid")
	}
	if res != nil {
		t.Fatalf("failed grid returned non-nil results: %+v", res)
	}
}
