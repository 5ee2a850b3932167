// Package experiments contains one runner per table/figure of the NUcache
// evaluation (the experiment index lives in DESIGN.md; measured-vs-paper
// results in EXPERIMENTS.md). Each runner builds the machine, drives the
// workloads, and renders a text table shaped like the paper's artifact.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/journal"
	"nucache/internal/memory"
	"nucache/internal/metrics"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/workload"
)

// Options are the global run parameters shared by all experiments.
type Options struct {
	// Budget is the per-core instruction budget (0 = 5M).
	Budget uint64
	// Seed drives all workload generators (0 = 1).
	Seed uint64
	// MixLimit truncates the standard mix lists (0 = all); tests use it.
	MixLimit int
	// BenchLimit truncates the benchmark list (0 = all); tests use it.
	BenchLimit int
	// Only restricts benchmark-driven experiments to one benchmark name
	// (empty = all).
	Only string
	// PrefetchDegree enables the next-line prefetcher on every core
	// (0 = off); used by the E17 prefetch-interaction study.
	PrefetchDegree int
	// UseDRAM switches the machine to the bank/row-buffer memory model
	// (used by the E18 memory-model study).
	UseDRAM bool
	// Parallel is the worker count for scheduler-backed experiments
	// (0 = runtime.NumCPU(), 1 = sequential). Mix tables are
	// embarrassingly parallel across (mix, policy) pairs; results are
	// byte-identical regardless of this setting because each pair is an
	// independent deterministic simulation collected in submission order.
	Parallel int
	// JobTimeout bounds each scheduler-backed (mix, policy) evaluation
	// (0 = no deadline). A pair exceeding it fails the grid with a
	// deadline error instead of hanging the whole experiment.
	JobTimeout time.Duration
	// DisableReplay forces direct simulation instead of the record/replay
	// fast path (results are bit-identical either way; the switch exists
	// for A/B debugging and the differential tests).
	DisableReplay bool
	// DisableMultiReplay keeps record/replay on but evaluates policy
	// grids one (mix, policy) cell at a time instead of stepping a whole
	// policy row through one tape walk (sim.RunMachineGrid). Bit-identical
	// either way; the escape hatch for A/B-ing the one-pass grid engine.
	DisableMultiReplay bool
	// DisableLaneParallel keeps the one-pass grid walk but steps its
	// policy lanes serially instead of borrowing idle scheduler workers
	// to run them on goroutines. Bit-identical either way; the escape
	// hatch for A/B-ing the parallel lane executor.
	DisableLaneParallel bool
	// Ctx, when non-nil, cancels scheduler-backed grids early: queued
	// cells return the context error, in-flight cells run to completion
	// (and still checkpoint), and the grid reports nil instead of
	// panicking — commands then exit cleanly, leaving the journal
	// resumable. Nil means context.Background() (never canceled).
	Ctx context.Context
	// Journal, when non-nil, checkpoints every computed grid cell
	// (content-address key plus JSON metrics) as it completes, so a
	// crashed or interrupted sweep resumes via OpenSweepJournal without
	// recomputing finished cells. Appends are best-effort: a journal
	// write failure is logged and the sweep continues (the cell just
	// recomputes on resume).
	Journal *journal.Journal
}

func (o Options) withDefaults() Options {
	if o.Budget == 0 {
		o.Budget = 5_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) mixes(cores int) []workload.Mix {
	ms := workload.MixesFor(cores)
	if o.MixLimit > 0 && len(ms) > o.MixLimit {
		ms = ms[:o.MixLimit]
	}
	return ms
}

func (o Options) benchmarks() []workload.Benchmark {
	if o.Only != "" {
		return []workload.Benchmark{workload.MustByName(o.Only)}
	}
	bs := workload.All()
	if o.BenchLimit > 0 && len(bs) > o.BenchLimit {
		bs = bs[:o.BenchLimit]
	}
	return bs
}

// PolicySpec names a shared-LLC policy and knows how to build a fresh
// instance for a machine.
type PolicySpec struct {
	// Name appears in result tables.
	Name string
	// New builds the policy for a machine with the given core count and
	// LLC associativity.
	New func(cores, ways int) cache.Policy
}

// Baseline is the baseline policy every comparison normalizes to.
func Baseline() PolicySpec {
	return PolicySpec{Name: "LRU", New: func(int, int) cache.Policy { return policy.NewLRU() }}
}

// NUcacheSpec is the paper's mechanism with default parameters.
func NUcacheSpec() PolicySpec {
	return PolicySpec{Name: "NUcache", New: func(_, ways int) cache.Policy {
		return core.MustNew(core.DefaultConfig(ways))
	}}
}

// NUcacheWith builds a spec from an explicit configuration (sweeps).
func NUcacheWith(name string, cfg func(ways int) core.Config) PolicySpec {
	return PolicySpec{Name: name, New: func(_, ways int) cache.Policy {
		return core.MustNew(cfg(ways))
	}}
}

// Competitors returns the cache-partitioning policies the paper compares
// against: UCP, PIPP and TADIP.
func Competitors() []PolicySpec {
	return []PolicySpec{
		{Name: "UCP", New: func(cores, ways int) cache.Policy {
			return policy.NewUCP(cores, ways)
		}},
		{Name: "PIPP", New: func(cores, ways int) cache.Policy {
			return policy.NewPIPP(cores, ways, 12345)
		}},
		{Name: "TADIP", New: func(cores, _ int) cache.Policy {
			return policy.NewTADIP(cores, 12345)
		}},
	}
}

// StandardPolicies is baseline + NUcache + competitors, the lineup of the
// multicore comparison figures.
func StandardPolicies() []PolicySpec {
	return append([]PolicySpec{Baseline(), NUcacheSpec()}, Competitors()...)
}

// machine returns the simulated machine for a core count with the
// experiment budget applied.
func (o Options) machine(cores int) cpu.Config {
	cfg := cpu.DefaultConfig(cores)
	cfg.InstrBudget = o.Budget
	cfg.PrefetchDegree = o.PrefetchDegree
	if o.UseDRAM {
		d := memory.DefaultConfig()
		cfg.DRAM = &d
	}
	return cfg
}

// runMix simulates one mix under one policy and returns per-core
// results. It goes through sim.RunMachine, so the policy-independent
// front end is recorded once per (benchmark, seed, geometry) and
// replayed per policy — bit-identical to direct simulation — and
// retired-instruction accounting happens exactly once per computed run.
func (o Options) runMix(m workload.Mix, spec PolicySpec) []cpu.CoreResult {
	cfg := o.machine(m.Cores())
	res, _, _ := sim.RunMachine(cfg, func() cache.Policy {
		return spec.New(cfg.Cores, cfg.LLC.Ways)
	}, m, o.Seed, o.DisableReplay)
	return res
}

// runAlone simulates one benchmark alone on the same machine geometry
// (the denominator of weighted speedup). Results are memoized per
// (benchmark, LLC size, budget, seed). Entries carry a sync.Once so
// concurrent grid workers needing the same alone run compute it exactly
// once without holding the map lock across a simulation.
type aloneKey struct {
	bench    string
	llcSize  int
	budget   uint64
	seed     uint64
	prefetch int
	dram     bool
}

type aloneEntry struct {
	once sync.Once
	ipc  float64
}

var (
	aloneMu    sync.Mutex
	aloneCache = map[aloneKey]*aloneEntry{}
)

func (o Options) aloneIPC(bench string, cores int) float64 {
	cfg := o.machine(cores)
	cfg.Cores = 1
	key := aloneKey{
		bench: bench, llcSize: cfg.LLC.SizeBytes,
		budget: o.Budget, seed: o.Seed, prefetch: o.PrefetchDegree,
		dram: o.UseDRAM,
	}
	aloneMu.Lock()
	e, ok := aloneCache[key]
	if !ok {
		e = &aloneEntry{}
		aloneCache[key] = e
	}
	aloneMu.Unlock()
	e.once.Do(func() {
		// A single-member mix at position 0 derives the same stream seed
		// as the shared-mode run, so when some mix leads with this
		// benchmark the alone run replays the very tape that mix
		// recorded. OneShot: an alone run replays once, so recording a
		// fresh tape for it would cost more than simulating directly.
		alone := workload.Mix{Name: "alone/" + bench, Members: []string{bench}}
		res, _, _ := sim.RunMachineOneShot(cfg, func() cache.Policy {
			return policy.NewLRU()
		}, alone, o.Seed, o.DisableReplay)
		e.ipc = res[0].IPC()
	})
	return e.ipc
}

// MixMetrics summarizes one (mix, policy) run.
type MixMetrics struct {
	// IPC is the per-core shared-mode IPC.
	IPC []float64
	// WS is weighted speedup vs alone runs.
	WS float64
	// ANTT is average normalized turnaround time (lower is better).
	ANTT float64
	// HS is the harmonic mean of speedups.
	HS float64
	// Fairness is min/max speedup.
	Fairness float64
	// MPKI is the aggregate LLC misses per kilo-instruction.
	MPKI float64
}

func (o Options) mixMetrics(m workload.Mix, spec PolicySpec) MixMetrics {
	return o.metricsFromResults(m, o.runMix(m, spec))
}

// metricsFromResults scores one mix's per-core results against its
// alone runs — the policy-independent tail of mixMetrics, shared with
// the one-pass grid path (computeRow), which produces the per-core
// results for a whole policy row at once.
func (o Options) metricsFromResults(m workload.Mix, res []cpu.CoreResult) MixMetrics {
	shared := make([]float64, len(res))
	var misses, instr uint64
	for i, r := range res {
		shared[i] = r.IPC()
		misses += r.LLCMisses
		instr += r.Instructions
	}
	alone := make([]float64, len(res))
	for i, name := range m.Members {
		alone[i] = o.aloneIPC(name, m.Cores())
	}
	mm := MixMetrics{
		IPC:      shared,
		WS:       metrics.WeightedSpeedup(shared, alone),
		ANTT:     metrics.ANTT(shared, alone),
		HS:       metrics.HarmonicSpeedup(shared, alone),
		Fairness: metrics.Fairness(shared, alone),
	}
	if instr > 0 {
		mm.MPKI = 1000 * float64(misses) / float64(instr)
	}
	return mm
}

// rowEntry shares one policy row's evaluation among its cell jobs: the
// first cell of (mix, shape) to run computes every still-uncached lane
// of the row in a single tape walk; sibling cells then read their lane.
type rowEntry struct {
	once sync.Once
	mm   []*MixMetrics // per spec; nil = not computed by the row pass
}

// rowMetrics returns cell (m, specs[j]) via the shared row pass. Lanes
// the row pass skipped (cached when it ran, or lost a race with another
// grid) fall back to a plain single-cell evaluation — bit-identical,
// just without the sharing.
func (o Options) rowMetrics(row *rowEntry, m workload.Mix, specs []PolicySpec, j int, lanes sim.LaneBudget) MixMetrics {
	row.once.Do(func() { o.computeRow(row, m, specs, lanes) })
	if mm := row.mm[j]; mm != nil {
		return *mm
	}
	return o.mixMetrics(m, specs[j])
}

// computeRow evaluates every uncached lane of one (mix, machine shape)
// policy row through sim.RunMachineGrid — one multi-policy replay job
// instead of len(specs) single-policy ones. Cells already in the grid
// cache are carved out (the scheduler serves them without running their
// jobs); a lane's scoring matches mixMetrics exactly.
func (o Options) computeRow(row *rowEntry, m workload.Mix, specs []PolicySpec, lanes sim.LaneBudget) {
	row.mm = make([]*MixMetrics, len(specs))
	cfg := o.machine(m.Cores())
	newPols := make([]func() cache.Policy, len(specs))
	live := 0
	for j, s := range specs {
		var cached MixMetrics
		if gridCache.Get(o.mixKey(m, s), &cached) {
			continue
		}
		s := s
		newPols[j] = func() cache.Policy { return s.New(cfg.Cores, cfg.LLC.Ways) }
		live++
	}
	if live == 0 {
		return
	}
	res, _, _ := sim.RunMachineGrid(cfg, newPols, m, o.Seed,
		o.DisableReplay, o.DisableMultiReplay, lanes)
	for j := range specs {
		if res[j] == nil {
			continue
		}
		mm := o.metricsFromResults(m, res[j])
		row.mm[j] = &mm
	}
}

// gridCache memoizes MixMetrics across experiments in this process,
// keyed by everything that determines them. Repeated sweeps (every
// sensitivity study re-runs the LRU baseline on the same mixes) hit
// instead of re-simulating.
var gridCache = sim.NewCache(8192, "")

// mixKey is the content address of one (mix, policy) evaluation. Policy
// names are part of the address: every PolicySpec in this package encodes
// its distinguishing parameters in its name (e.g. "D=4", "epoch=50k"),
// which keeps closure-built specs hashable.
func (o Options) mixKey(m workload.Mix, spec PolicySpec) string {
	return strings.Join([]string{
		"mixmetrics/v1",
		"policy=" + spec.Name,
		"mix=" + m.Name,
		"members=" + strings.Join(m.Members, "+"),
		fmt.Sprintf("budget=%d", o.Budget),
		fmt.Sprintf("seed=%d", o.Seed),
		fmt.Sprintf("prefetch=%d", o.PrefetchDegree),
		fmt.Sprintf("dram=%v", o.UseDRAM),
	}, "|")
}

// cellRecord is one checkpoint journal entry. Completion records (Type
// empty) address a finished grid cell by content key and carry exactly
// the JSON the result cache stores — resume seeds the cache with Val
// verbatim, so a resumed sweep is byte-identical to an uninterrupted
// one. Type is only ever read: journals written by the distributed
// sweep mode that has since been removed interleave lease/expiry
// annotation records (non-empty Type) among the completions, and resume
// skips them.
type cellRecord struct {
	Type string          `json:"type,omitempty"`
	Key  string          `json:"key"`
	Val  json.RawMessage `json:"val"`
}

// journalValue checkpoints one computed cell of any JSON-serializable
// type (MixMetrics grids, advisor ProfileCells). Best effort: a journal
// failure costs only a recompute on resume, never the sweep.
func (o Options) journalValue(key string, v any) {
	if o.Journal == nil {
		return
	}
	val, err := json.Marshal(v)
	if err == nil {
		var rec []byte
		if rec, err = json.Marshal(cellRecord{Key: key, Val: val}); err == nil {
			err = o.Journal.Append(rec)
		}
	}
	if err != nil {
		slog.Warn("experiments: journal checkpoint failed", "key", key, "err", err)
	}
}

// OpenSweepJournal opens the checkpoint journal at path. With
// resume=false it starts fresh (truncating any prior journal). With
// resume=true it replays the journal — tolerating a torn final record
// from a crash mid-append — and seeds the in-process grid cache with
// every completed cell, so the resumed sweep serves them as cache hits
// instead of recomputing. It returns the journal positioned for further
// appends and the number of cells resumed.
func OpenSweepJournal(path string, resume bool) (*journal.Journal, int, error) {
	if !resume {
		j, err := journal.Create(path)
		return j, 0, err
	}
	seeded := 0
	j, err := journal.Open(path, func(rec []byte) error {
		var cell cellRecord
		if err := json.Unmarshal(rec, &cell); err != nil {
			return fmt.Errorf("experiments: corrupt journal cell: %w", err)
		}
		if cell.Type != "" {
			// Kept to read old journals: the removed distributed sweep
			// mode wrote lease/expiry annotations between completions.
			// They never complete a cell; only completion records seed
			// the cache.
			return nil
		}
		gridCache.PutEncoded(cell.Key, cell.Val)
		seeded++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return j, seeded, nil
}

// mixMetricsGrid evaluates every (mix, spec) pair through the shared
// scheduler: grid[i][j] pairs mixes[i] with specs[j]. Pairs run
// concurrently on up to Options.Parallel workers but are collected in
// submission order, and each pair is an independent deterministic
// simulation, so the grid is identical to nested sequential mixMetrics
// calls. Simulation panics surface as panics, as they would sequentially.
// When Options.Ctx is cancelled mid-grid the remaining cells error out
// and the grid returns nil (completed cells are already checkpointed);
// any other cell failure still panics.
func (o Options) mixMetricsGrid(mixes []workload.Mix, specs []PolicySpec) [][]MixMetrics {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Deadlines pass through to every pair; the queue stays unbounded
	// because the grid submits all pairs up front by design.
	sched := sim.NewSchedulerWith(sim.SchedulerConfig{
		Workers:        o.Parallel,
		Cache:          gridCache,
		DefaultTimeout: o.JobTimeout,
	})
	// One rowEntry per mix: the first cell job of a row to run evaluates
	// the row's uncached lanes in a single multi-policy tape walk
	// (computeRow); its siblings block on the once and then just read
	// their lane. Cells stay the unit of scheduling, caching and
	// journaling — each cell job still journals exactly its own cell —
	// so resume and chaos behavior are unchanged.
	rows := make([]rowEntry, len(mixes))
	// The scheduler doubles as the lane budget: a row job holding one
	// worker slot borrows idle slots to step its replay lanes in
	// parallel, so lanes and cell jobs share the same Workers() bound.
	var lanes sim.LaneBudget
	if !o.DisableLaneParallel {
		lanes = sched
	}
	jobs := make([]sim.Job, 0, len(mixes)*len(specs))
	for i, m := range mixes {
		for j, s := range specs {
			i, j, m, s := i, j, m, s
			key := o.mixKey(m, s)
			jobs = append(jobs, sim.Job{
				Key:   key,
				Label: fmt.Sprintf("%s under %s", m.Name, s.Name),
				New:   func() any { return new(MixMetrics) },
				Run: func(context.Context) (any, error) {
					var mm MixMetrics
					if o.DisableMultiReplay {
						mm = o.mixMetrics(m, s)
					} else {
						mm = o.rowMetrics(&rows[i], m, specs, j, lanes)
					}
					o.journalValue(key, &mm)
					return &mm, nil
				},
			})
		}
	}
	outs := sched.RunAll(ctx, jobs)
	grid := make([][]MixMetrics, len(mixes))
	k := 0
	for i := range mixes {
		grid[i] = make([]MixMetrics, len(specs))
		for j := range specs {
			out := outs[k]
			k++
			if out.Err != nil {
				if ctx.Err() != nil {
					// Interrupted, not broken: the caller reports the
					// partial sweep and points at -resume.
					return nil
				}
				panic(fmt.Sprintf("experiments: %s under %s: %v",
					mixes[i].Name, specs[j].Name, out.Err))
			}
			grid[i][j] = *out.Value.(*MixMetrics)
		}
	}
	return grid
}

// fmtPC renders a core-tagged PC the way the harness prints them.
func fmtPC(pc uint64) string {
	core := pc >> 48
	if core != 0 {
		return fmt.Sprintf("c%d:%#x", core, pc&(1<<48-1))
	}
	return fmt.Sprintf("%#x", pc)
}
