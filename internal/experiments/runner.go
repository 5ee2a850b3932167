// Package experiments contains one runner per table/figure of the NUcache
// evaluation (the experiment index lives in DESIGN.md; measured-vs-paper
// results in EXPERIMENTS.md). Each runner describes its machine and
// policies, simulates through sim.RunMachine (multicore cells through
// one cell driver, runCells; single-core passes through runAlone), and
// renders a text table shaped like the paper's artifact.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"time"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/journal"
	"nucache/internal/metrics"
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

	// prefetch enables the next-line prefetcher on every core (0 = off);
	// only the E17 prefetch-interaction study sets it, on its own copy.
	prefetch int
	// dram switches the machine to the bank/row-buffer memory model;
	// only the E18 memory-model study sets it, on its own copy.
	dram bool
}

func (o Options) withDefaults() Options {
	if o.Budget == 0 {
		o.Budget = sim.DefaultBudget
	}
	if o.Seed == 0 {
		o.Seed = sim.DefaultSeed
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

// catalogSpec is the spec of a catalog policy, built by sim.BuildPolicy
// with its default parameters (NUcache at core.DefaultDeliWays).
func catalogSpec(name string) PolicySpec {
	return PolicySpec{Name: name, New: func(cores, ways int) cache.Policy {
		p, err := sim.BuildPolicy(name, cores, ways, core.DefaultDeliWays)
		if err != nil {
			panic(err) // cannot fail: a catalog name on a machine no wider than its LLC
		}
		return p
	}}
}

// Baseline is the baseline policy every comparison normalizes to.
func Baseline() PolicySpec { return catalogSpec("LRU") }

// NUcacheSpec is the paper's mechanism with default parameters.
func NUcacheSpec() PolicySpec { return catalogSpec("NUcache") }

// NUcacheWith builds a spec from an explicit configuration (sweeps).
func NUcacheWith(name string, cfg func(ways int) core.Config) PolicySpec {
	return PolicySpec{Name: name, New: func(_, ways int) cache.Policy {
		return core.MustNew(cfg(ways))
	}}
}

// StandardPolicies is sim.Lineup as specs: the baseline, NUcache and
// the partitioning policies the paper compares against, the lineup of
// the multicore comparison figures.
func StandardPolicies() []PolicySpec {
	var specs []PolicySpec
	for _, name := range sim.Lineup() {
		specs = append(specs, catalogSpec(name))
	}
	return specs
}

// machine returns the simulated machine for a core count with the
// experiment budget applied, through sim.MachineConfig, the mapping
// every simulation path shares.
func (o Options) machine(cores int) cpu.Config {
	return sim.MachineConfig(sim.Request{
		Budget: o.Budget, Prefetch: o.prefetch, DRAM: o.dram,
	}, cores)
}

// aloneMix is the one-member mix that runs bench by itself. Position 0
// runs at the experiment seed (workload.MemberSeed(seed, 0) == seed), so
// it draws the same stream as every mix that leads with bench.
func aloneMix(bench string) workload.Mix {
	return workload.Mix{Name: "alone/" + bench, Members: []string{bench}}
}

// runAlone runs benchmark b alone on the one-core machine under a policy
// built by newPol. It goes through sim.RunMachine, so every single-core
// pass over b replays one recorded tape. It returns the core's result
// and the policy RunMachine actually used: a failed replay rebuilds the
// policy, so callers read recorded state (Recorder.LineAddrs, the
// NUcache monitor) from the returned policy only.
func (o Options) runAlone(b workload.Benchmark, newPol func() cache.Policy) (cpu.CoreResult, cache.Policy) {
	res, _, pol := sim.RunMachine(o.machine(1), newPol, aloneMix(b.Name), o.Seed, o.DisableReplay)
	return res[0], pol
}

// aloneIPC simulates one benchmark alone on the same machine geometry
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
		budget: o.Budget, seed: o.Seed, prefetch: o.prefetch,
		dram: o.dram,
	}
	aloneMu.Lock()
	e, ok := aloneCache[key]
	if !ok {
		e = &aloneEntry{}
		aloneCache[key] = e
	}
	aloneMu.Unlock()
	e.once.Do(func() {
		// When some mix leads with this benchmark the alone run replays
		// the very tape that mix recorded. OneShot: an alone run replays
		// once, so recording a fresh tape for it would cost more than
		// simulating directly.
		res, _, _ := sim.RunMachineOneShot(cfg, func() cache.Policy {
			return Baseline().New(1, cfg.LLC.Ways)
		}, aloneMix(bench), o.Seed, o.DisableReplay)
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

// mixMetrics simulates one (mix, policy) cell and scores its per-core
// results against the mix members' alone runs. The simulation goes
// through sim.RunMachine, so the policy-independent front end is
// recorded once per (benchmark, seed, geometry) and replayed per
// policy, and retired instructions are counted once per computed run.
func (o Options) mixMetrics(m workload.Mix, spec PolicySpec) MixMetrics {
	cfg := o.machine(m.Cores())
	res, _, _ := sim.RunMachine(cfg, func() cache.Policy {
		return spec.New(cfg.Cores, cfg.LLC.Ways)
	}, m, o.Seed, o.DisableReplay)
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
		fmt.Sprintf("prefetch=%d", o.prefetch),
		fmt.Sprintf("dram=%v", o.dram),
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

// cell is one content-addressed unit of experiment work — a (mix,
// policy) grid pair or an advisor mix — and the body that computes it.
type cell[T any] struct {
	key, label string
	run        func(ctx context.Context) (*T, error)
}

// runCells is the one cell driver: it evaluates cells through a
// scheduler over gridCache, so cells run concurrently on up to
// Options.Parallel workers, repeated cells are served from the cache,
// and each computed cell is checkpointed to Options.Journal. Values come
// back in cell order, and each cell is an independent deterministic
// computation, so the result does not depend on the worker count. When
// Options.Ctx is cancelled mid-run the remaining cells error out and
// runCells returns nil (completed cells are already checkpointed); any
// other cell failure panics with the cell's label, as it would
// sequentially.
func runCells[T any](o Options, cells []cell[T]) []*T {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Deadlines pass through to every cell; the queue stays unbounded
	// because the driver submits all cells up front by design.
	sched := sim.NewSchedulerWith(sim.SchedulerConfig{
		Workers:        o.Parallel,
		Cache:          gridCache,
		DefaultTimeout: o.JobTimeout,
	})
	jobs := make([]sim.Job, len(cells))
	for i, c := range cells {
		jobs[i] = sim.Job{
			Key:   c.key,
			Label: c.label,
			New:   func() any { return new(T) },
			Run: func(ctx context.Context) (any, error) {
				v, err := c.run(ctx)
				if err != nil {
					return nil, err
				}
				o.journalValue(c.key, v)
				return v, nil
			},
		}
	}
	outs := sched.RunAll(ctx, jobs)
	vals := make([]*T, len(outs))
	for i, out := range outs {
		if out.Err != nil {
			if ctx.Err() != nil {
				// Interrupted, not broken: the caller reports the
				// partial sweep and points at -resume.
				return nil
			}
			panic(fmt.Sprintf("experiments: %s: %v", cells[i].label, out.Err))
		}
		vals[i] = out.Value.(*T)
	}
	return vals
}

// mixMetricsGrid evaluates every (mix, spec) pair as one cell:
// grid[i][j] pairs mixes[i] with specs[j], identical to nested
// sequential mixMetrics calls. It returns nil when Options.Ctx is
// cancelled mid-grid (see runCells).
func (o Options) mixMetricsGrid(mixes []workload.Mix, specs []PolicySpec) [][]MixMetrics {
	// Cells start in submission order. Each window of as many mixes as
	// there are workers goes spec by spec, so the workers start on
	// different mixes and record their tapes in parallel (cells of one
	// mix would wait on each other's recording), and a window's tapes
	// are replayed by all its cells before the memo records the next
	// window's.
	w := o.Parallel
	if w <= 0 {
		w = runtime.NumCPU()
	}
	type at struct{ i, j int }
	var order []at
	var cells []cell[MixMetrics]
	for lo := 0; lo < len(mixes); lo += w {
		for j, s := range specs {
			for i, m := range mixes[lo:min(lo+w, len(mixes))] {
				order = append(order, at{lo + i, j})
				cells = append(cells, cell[MixMetrics]{
					key:   o.mixKey(m, s),
					label: fmt.Sprintf("%s under %s", m.Name, s.Name),
					run: func(context.Context) (*MixMetrics, error) {
						mm := o.mixMetrics(m, s)
						return &mm, nil
					},
				})
			}
		}
	}
	vals := runCells(o, cells)
	if vals == nil {
		return nil
	}
	grid := make([][]MixMetrics, len(mixes))
	for i := range grid {
		grid[i] = make([]MixMetrics, len(specs))
	}
	for k, c := range order {
		grid[c.i][c.j] = *vals[k]
	}
	return grid
}

// fmtPC renders a core-tagged PC the way the harness prints them.
func fmtPC(pc uint64) string {
	if c, raw := cpu.UntagPC(pc); c != 0 {
		return fmt.Sprintf("c%d:%#x", c, raw)
	}
	return fmt.Sprintf("%#x", pc)
}
