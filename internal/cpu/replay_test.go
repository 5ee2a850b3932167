package cpu_test

// Differential suite for the record/replay engine: for every LLC policy
// the service can build and a spread of machine shapes (private L2,
// warm-up, prefetching, DRAM, uneven stream exhaustion), a replayed run
// must be bit-identical to the direct simulation — per-core results,
// full LLC statistics, prefetch counts and DRAM state. CI runs this
// suite by name (with -race) before the full test run.

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

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

// hookPolicy is the policy it wraps, except that its n'th Victim call
// (the n'th LLC miss) first runs hook: a way to act on the tape memo at
// a known point in the middle of a replay. The wrapped policy must
// implement no optional cache interface (LRU implements none), or the
// wrapper would hide it.
type hookPolicy struct {
	cache.Policy
	n    int
	hook func()
}

func (p *hookPolicy) Victim(set *cache.Set, req *cache.Request) int {
	if p.n--; p.n == 0 {
		p.hook()
	}
	return p.Policy.Victim(set, req)
}

// newLRU builds the LRU policy for cfg.
func newLRU(cfg cpu.Config) cache.Policy {
	p, _ := sim.BuildPolicy("LRU", cfg.Cores, cfg.LLC.Ways, 0)
	return p
}

// tapeID is the memo id RunMachine gives a mix's first member: the id
// of the stream bench draws at seed.
func tapeID(bench string, seed uint64) string { return workload.MustByName(bench).StreamID(seed) }

// acquireBench acquires the memo tape of bench's stream under seed.
func acquireBench(cfg cpu.Config, bench string, seed uint64) *cpu.Tape {
	return cpu.AcquireTape(tapeID(bench, seed), cfg,
		func() trace.Stream { return workload.MustByName(bench).Stream(seed) })
}

// coldMemo empties the tape memo for one test and afterwards restores
// the cap and empties the memo again.
func coldMemo(t *testing.T) {
	cpu.ResetTapes()
	saved := cpu.SetTapeBudget(cpu.DefaultTapeBudget)
	t.Cleanup(func() {
		cpu.SetTapeBudget(saved)
		cpu.ResetTapes()
	})
}

// evictAll lowers the cap to one byte and acquires a fresh key, which
// makes AcquireTape evict every tape in the memo. The key is a seeded
// model's at a seed no test runs, so no memoized tape answers it.
func evictAll(cfg cpu.Config) {
	cpu.SetTapeBudget(1)
	acquireBench(cfg, "sphinx-like", 1<<20)
}

// TestReplayTapeBudgetFallback: past the cap AcquireTape never refuses
// a tape. It first evicts the least recently used idle tapes (a
// LookupTape hit counts as a use) until the memo is under the cap, and
// re-acquiring an evicted key records a fresh tape that replays
// bit-identical to direct simulation.
func TestReplayTapeBudgetFallback(t *testing.T) {
	coldMemo(t)
	cfg := smallConfig(1)
	const seed = 3
	benches := []string{"art-like", "mcf-like", "milc-like"}
	run := func(bench string, noReplay bool) []cpu.CoreResult {
		mix := workload.Mix{Name: "evict", Members: []string{bench}}
		res, _, _ := sim.RunMachine(cfg, func() cache.Policy { return newLRU(cfg) }, mix, seed, noReplay)
		return res
	}
	// Record the three tapes in full, noting what each adds to TapeBytes.
	tapes := make([]*cpu.Tape, len(benches))
	sizes := make([]int64, len(benches))
	for i, b := range benches {
		before := cpu.TapeBytes()
		run(b, false)
		sizes[i] = cpu.TapeBytes() - before
		if tapes[i] = cpu.LookupTape(tapeID(b, seed), cfg); tapes[i] == nil || sizes[i] <= 0 {
			t.Fatalf("%s: RunMachine memoized tape %p of %d bytes", b, tapes[i], sizes[i])
		}
	}
	// Use the oldest tape again, so the middle one is least recently
	// used, and lower the cap to one byte less than the memo would hold
	// without it.
	cpu.LookupTape(tapeID(benches[0], seed), cfg)
	full := cpu.TapeBytes()
	cpu.SetTapeBudget(full - sizes[1] + 1)
	recorded, evicted := cpu.TapesRecorded(), cpu.TapesEvicted()
	acquireBench(cfg, "equake-like", seed)
	if got := cpu.TapesEvicted() - evicted; got != 1 {
		t.Fatalf("admitting one tape evicted %d; want 1", got)
	}
	if cpu.TapesRecorded() != recorded+1 {
		t.Fatal("the new tape was not recorded")
	}
	if got, want := cpu.TapeBytes(), full-sizes[1]; got != want {
		t.Errorf("TapeBytes after the eviction = %d; want %d", got, want)
	}
	for i, b := range benches {
		got := cpu.LookupTape(tapeID(b, seed), cfg)
		if i == 1 && got != nil {
			t.Errorf("%s, the least recently used tape, is still memoized", b)
		}
		if i != 1 && got != tapes[i] {
			t.Errorf("%s was evicted; only the least recently used tape should be", b)
		}
	}

	// The evicted key records afresh, and the new tape replays exactly.
	opened := false
	fresh := cpu.AcquireTape(tapeID(benches[1], seed), cfg, func() trace.Stream {
		opened = true
		return workload.MustByName(benches[1]).Stream(seed)
	})
	if !opened || fresh == tapes[1] {
		t.Fatal("re-acquiring an evicted key reused the evicted tape")
	}
	fallbacks := sim.TraceFallbacks.Value()
	if got, want := run(benches[1], false), run(benches[1], true); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-recorded tape diverges from direct simulation\ngot:  %+v\nwant: %+v", got, want)
	}
	if sim.TraceFallbacks.Value() != fallbacks {
		t.Fatal("replay over the re-recorded tape fell back")
	}
}

// TestReplayDecodeBudgetStreaming: a tape evicted in the middle of its
// replay is detached, not killed. The replay keeps extending it and
// finishes bit-identical to direct simulation with no fallback, its
// later growth stays out of TapeBytes, and the next run records the
// key afresh.
func TestReplayDecodeBudgetStreaming(t *testing.T) {
	coldMemo(t)
	cfg := smallConfig(1)
	cfg.InstrBudget = 120_000
	const bench, seed = "mcf-like", 11
	mix := workload.Mix{Name: "evict", Members: []string{bench}}

	var (
		tape          *cpu.Tape
		evictedEvents uint64
		evictedBytes  int64
	)
	hooked := func() cache.Policy {
		return &hookPolicy{Policy: newLRU(cfg), n: 100, hook: func() {
			tape = cpu.LookupTape(tapeID(bench, seed), cfg)
			evictAll(cfg)
			evictedEvents = cpu.TapeWords(tape, cpu.EventWord)
			evictedBytes = cpu.TapeBytes()
		}}
	}
	replayed, fallbacks := sim.TracesReplayed.Value(), sim.TraceFallbacks.Value()
	got, _, _ := sim.RunMachine(cfg, hooked, mix, seed, false)
	if tape == nil {
		t.Fatal("the hook found no memoized tape mid-replay")
	}
	if sim.TracesReplayed.Value() != replayed+1 || sim.TraceFallbacks.Value() != fallbacks {
		t.Fatal("the evicted tape's replay fell back to direct simulation")
	}
	want, _, _ := sim.RunMachine(cfg, func() cache.Policy { return newLRU(cfg) }, mix, seed, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay over an evicted tape diverges from direct simulation\ngot:  %+v\nwant: %+v", got, want)
	}
	if events := cpu.TapeWords(tape, cpu.EventWord); events <= evictedEvents {
		t.Fatalf("the tape held %d events at eviction and %d at the end; want it extended after eviction", evictedEvents, events)
	}
	if cpu.TapeBytes() != evictedBytes {
		t.Errorf("the detached tape's growth moved TapeBytes %d -> %d", evictedBytes, cpu.TapeBytes())
	}
	if cpu.LookupTape(tapeID(bench, seed), cfg) != nil {
		t.Fatal("the evicted tape is still memoized")
	}
	cpu.SetTapeBudget(cpu.DefaultTapeBudget)
	recorded := cpu.TapesRecorded()
	if again, _, _ := sim.RunMachine(cfg, func() cache.Policy { return newLRU(cfg) }, mix, seed, false); !reflect.DeepEqual(again, want) {
		t.Fatal("the re-recorded tape diverges from direct simulation")
	}
	if cpu.TapesRecorded() != recorded+1 {
		t.Fatal("the next run did not record the evicted key afresh")
	}
}

// TestReplayEvictsIdleTapeMidReplay: admitting a tape while another
// is being replayed evicts the idle, least recently used tape and
// leaves the replaying one in the memo. The replay finishes
// bit-identical to direct simulation, and its tape's growth after the
// eviction still counts in TapeBytes.
func TestReplayEvictsIdleTapeMidReplay(t *testing.T) {
	coldMemo(t)
	cfg := smallConfig(1)
	cfg.InstrBudget = 120_000
	const idle, busy, seed = "art-like", "mcf-like", 13
	lru := func() cache.Policy { return newLRU(cfg) }
	single := func(bench string) workload.Mix {
		return workload.Mix{Name: "evict", Members: []string{bench}}
	}

	before := cpu.TapeBytes()
	sim.RunMachine(cfg, lru, single(idle), seed, false)
	idleBytes := cpu.TapeBytes() - before
	idleTape := cpu.LookupTape(tapeID(idle, seed), cfg)
	if idleTape == nil || idleBytes <= 0 {
		t.Fatalf("RunMachine memoized idle tape %p of %d bytes", idleTape, idleBytes)
	}

	var busyTape *cpu.Tape
	var afterEviction int64
	evicted := cpu.TapesEvicted()
	hooked := func() cache.Policy {
		return &hookPolicy{Policy: lru(), n: 100, hook: func() {
			// The replaying tape is the most recently used, so a cap at
			// the memo's bytes evicts the idle tape alone.
			held := cpu.TapeBytes()
			cpu.SetTapeBudget(held)
			acquireBench(cfg, "swim-like", seed)
			if got := cpu.TapeBytes(); got != held-idleBytes {
				t.Errorf("TapeBytes after evicting the idle tape = %d; want %d", got, held-idleBytes)
			}
			cpu.SetTapeBudget(cpu.DefaultTapeBudget)
			afterEviction = cpu.TapeBytes()
			busyTape = cpu.LookupTape(tapeID(busy, seed), cfg)
		}}
	}
	fallbacks := sim.TraceFallbacks.Value()
	got, _, _ := sim.RunMachine(cfg, hooked, single(busy), seed, false)
	if cpu.TapesEvicted() != evicted+1 {
		t.Fatalf("admission evicted %d tapes; want the idle one only", cpu.TapesEvicted()-evicted)
	}
	if cpu.LookupTape(tapeID(idle, seed), cfg) != nil {
		t.Error("the idle tape is still memoized")
	}
	if busyTape == nil {
		t.Fatal("the replaying tape was evicted")
	}
	if sim.TraceFallbacks.Value() != fallbacks {
		t.Fatal("the replay fell back to direct simulation")
	}
	want, _, _ := sim.RunMachine(cfg, lru, single(busy), seed, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay diverges from direct simulation\ngot:  %+v\nwant: %+v", got, want)
	}
	if cpu.TapeBytes() <= afterEviction {
		t.Errorf("the replaying tape's growth after the eviction left TapeBytes at %d", cpu.TapeBytes())
	}
}

// TestTapePageBitFlipFallsBackToDirect: one flipped bit in the event
// records of a memoized tape fails every replay of it, and RunMachine
// falls back to direct simulation with the clean run's results. The
// corrupt tape then leaves the memo: the next RunMachine records a new
// tape and replays it, and LookupTape of a tape found corrupt answers
// nil.
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
	tape := cpu.LookupTape(tapeID(bench, seed), cfg)
	if tape == nil {
		t.Fatal("RunMachine memoized no tape")
	}
	// Flip a set-index bit of the last event's line, in the frame the
	// tape's last extension sealed: the next replay's first view
	// re-verifies it.
	events := cpu.TapeWords(tape, cpu.EventWord)
	cpu.FlipTapeBit(tape, cpu.EventWord, events-1, 3)

	fallbacks, corrupt := sim.TraceFallbacks.Value(), fallbacksBy("corrupt")
	got, _, _ := sim.RunMachine(cfg, newPol, mix, seed, false)
	if sim.TraceFallbacks.Value() != fallbacks+1 {
		t.Fatal("RunMachine replayed a corrupt tape instead of falling back")
	}
	if fallbacksBy("corrupt") != corrupt+1 {
		t.Error("the fallback was not counted under corrupt")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback diverges from the clean run\ngot:  %+v\nwant: %+v", got, want)
	}
	rs := cpu.NewReplaySystem(cfg, newPol(), []*cpu.Tape{tape})
	if res, err := rs.Run(); !errors.Is(err, cpu.ErrCorruptTape) || res != nil {
		t.Fatalf("replay of a corrupt tape = %v, %v; want cpu.ErrCorruptTape and nil results", res, err)
	}

	fallbacks, recorded := sim.TraceFallbacks.Value(), cpu.TapesRecorded()
	again, _, _ := sim.RunMachine(cfg, newPol, mix, seed, false)
	if sim.TraceFallbacks.Value() != fallbacks {
		t.Fatal("RunMachine fell back again after the corrupt tape was found")
	}
	if cpu.TapesRecorded() != recorded+1 {
		t.Fatal("RunMachine did not record a new tape in place of the corrupt one")
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("the new tape's replay diverges from the clean run\ngot:  %+v\nwant: %+v", again, want)
	}
	fresh := cpu.LookupTape(tapeID(bench, seed), cfg)
	if fresh == nil || fresh == tape {
		t.Fatalf("memo holds %p after the re-record; want a new tape, not %p", fresh, tape)
	}

	cpu.FlipTapeBit(fresh, cpu.EventWord, 0, 3)
	if err := fresh.Verify(); !errors.Is(err, cpu.ErrCorruptTape) {
		t.Fatalf("Verify of a flipped tape = %v; want cpu.ErrCorruptTape", err)
	}
	evicted := cpu.TapesEvicted()
	if got := cpu.LookupTape(tapeID(bench, seed), cfg); got != nil {
		t.Fatal("LookupTape returned a tape known to be corrupt")
	}
	if cpu.TapesEvicted() != evicted+1 {
		t.Error("LookupTape did not evict the corrupt tape")
	}
}

// TestTapeCorruptConcurrentAcquire: simulations racing over a memoized
// tape that turns out corrupt each either replay it or fall back, all
// with the clean run's results, and the memo ends up holding one sound
// tape (run under -race in CI).
func TestTapeCorruptConcurrentAcquire(t *testing.T) {
	cfg := smallConfig(1)
	const bench, seed = "mcf-like", 9
	mix := workload.Mix{Name: "race", Members: []string{bench}}
	newPol := func() cache.Policy { return newLRU(cfg) }
	cpu.ResetTapes()
	t.Cleanup(cpu.ResetTapes)

	want, _, _ := sim.RunMachine(cfg, newPol, mix, seed, false)
	tape := cpu.LookupTape(tapeID(bench, seed), cfg)
	cpu.FlipTapeBit(tape, cpu.EventWord, cpu.TapeWords(tape, cpu.EventWord)-1, 3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got, _, _ := sim.RunMachine(cfg, newPol, mix, seed, false); !reflect.DeepEqual(got, want) {
					t.Error("a run over the corrupt tape's key diverges from the clean run")
				}
			}
		}()
	}
	wg.Wait()
	fresh := cpu.LookupTape(tapeID(bench, seed), cfg)
	if fresh == nil || fresh == tape {
		t.Fatalf("memo holds %p; want a new tape in place of %p", fresh, tape)
	}
	if err := fresh.Verify(); err != nil {
		t.Fatalf("the re-recorded tape: %v", err)
	}
}

// TestTapeCorruptProfileRecordsAfresh: a profile walk that finds its
// memoized tape corrupt fails, but the tape leaves the memo, so the
// next ExecuteProfile records a new tape and returns the clean profile,
// and a scheduled profile job recovers on its transient retry.
func TestTapeCorruptProfileRecordsAfresh(t *testing.T) {
	cpu.ResetTapes()
	t.Cleanup(cpu.ResetTapes)
	req := sim.ProfileRequest{Bench: "art-like", Budget: 200_000, Seed: 3}
	cfg := sim.MachineConfig(sim.Request{Budget: req.Budget}, 1)
	id := tapeID(req.Bench, workload.MemberSeed(req.Seed, 0))
	ctx := context.Background()
	// flip corrupts the last event of the memoized tape, in the frame its
	// last extension sealed, so the next walk's first view finds it.
	flip := func() {
		t.Helper()
		tape := cpu.LookupTape(id, cfg)
		if tape == nil {
			t.Fatal("ExecuteProfile memoized no tape")
		}
		cpu.FlipTapeBit(tape, cpu.EventWord, cpu.TapeWords(tape, cpu.EventWord)-1, 3)
	}

	want, err := sim.ExecuteProfile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	flip()
	if _, err := sim.ExecuteProfile(ctx, req); !errors.Is(err, cpu.ErrCorruptTape) {
		t.Fatalf("profile over a corrupt tape = %v; want cpu.ErrCorruptTape", err)
	}
	got, err := sim.ExecuteProfile(ctx, req)
	if err != nil {
		t.Fatalf("profile after the corrupt tape was found: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the re-recorded tape's profile differs from the clean one")
	}

	flip()
	s := sim.NewSchedulerWith(sim.SchedulerConfig{
		Workers: 1,
		Retry:   sim.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
	})
	out := s.Do(ctx, sim.ProfileJobFor(req))
	if out.Err != nil || out.Attempts != 2 {
		t.Fatalf("scheduled profile over a corrupt tape: err %v after %d attempts; want success on the retry", out.Err, out.Attempts)
	}
	if !reflect.DeepEqual(out.Value, want) {
		t.Fatal("the retried profile differs from the clean one")
	}
}

// fallbacksBy reads one key of nucache_trace_fallbacks_by_cause.
func fallbacksBy(cause string) int64 {
	return sim.TraceFallbacksByCause.Get(cause).(*expvar.Int).Value()
}

// untaggableStream is one access outside the core-tagging range: a tape
// of it dies on its first extension.
func untaggableStream() trace.Stream {
	return trace.NewSliceStream([]trace.Access{
		{Addr: 1 << 45, PC: 0x400000, Kind: trace.Load},
	})
}

// TestReplayUntaggableStreamFallback: streams outside the core-tagging
// range poison the tape with an error instead of replaying wrong state.
func TestReplayUntaggableStreamFallback(t *testing.T) {
	cfg := smallConfig(1)
	tape := cpu.NewTape(cfg, untaggableStream())
	pol, _ := sim.BuildPolicy("LRU", 1, cfg.LLC.Ways, 0)
	rs := cpu.NewReplaySystem(cfg, pol, []*cpu.Tape{tape})
	_, err := rs.Run()
	if !errors.Is(err, cpu.ErrUntaggable) {
		t.Fatalf("replay of an untaggable stream = %v; want cpu.ErrUntaggable", err)
	}
	if cause := sim.FallbackCause(err); cause != "untaggable" {
		t.Errorf("the fallback counts under %q; want untaggable", cause)
	}
}

// TestReplaySeedlessMembersShareTape: a seedless benchmark draws one
// stream at every seed and mix position, so its members replay one
// memoized tape, while a seeded benchmark records a tape per position.
// Replay over the shared tape is bit-identical to direct simulation.
func TestReplaySeedlessMembersShareTape(t *testing.T) {
	coldMemo(t)
	cfg := smallConfig(4)
	mix := workload.Mix{Name: "dup", Members: []string{"art-like", "art-like", "omnetpp-like", "omnetpp-like"}}
	lru := func() cache.Policy { return newLRU(cfg) }
	for _, tc := range []struct {
		seed     uint64
		recorded int64 // new tapes
	}{
		{21, 3}, // art-like once, omnetpp-like per position
		{22, 2}, // art-like's tape is reused across seeds
	} {
		recorded, replayed := cpu.TapesRecorded(), sim.TracesReplayed.Value()
		got, _, _ := sim.RunMachine(cfg, lru, mix, tc.seed, false)
		if sim.TracesReplayed.Value() != replayed+1 {
			t.Fatalf("seed %d: the mix did not replay", tc.seed)
		}
		if n := cpu.TapesRecorded() - recorded; n != tc.recorded {
			t.Errorf("seed %d: recorded %d tapes; want %d", tc.seed, n, tc.recorded)
		}
		want, _, _ := sim.RunMachine(cfg, lru, mix, tc.seed, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: replay over a shared tape diverges from direct simulation\ngot:  %+v\nwant: %+v", tc.seed, got, want)
		}
	}
}
