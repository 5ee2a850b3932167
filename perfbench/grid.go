package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/experiments"
	"nucache/internal/journal"
	"nucache/internal/metrics"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/workload"
)

// The grid workload is experiment E7: the ten standard 4-core mixes
// under the five standard policies, run through
// experiments.MulticoreComparison with Parallel = nproc and a sweep
// journal, as `nucache-sweep -journal` runs it. One round is one whole
// grid. Every round uses a fresh experiment seed and starts with an
// empty tape memo, so no cell is ever served from a cache.

const (
	gridCores  = 4
	gridSetups = 51
	// paperGain4 is the paper's 4-core geomean weighted-speedup gain of
	// NUcache over LRU.
	paperGain4 = 0.30
)

type gridParams struct {
	budget   uint64
	mixLimit int
}

func gridParamsFor(rc runConfig) gridParams {
	if rc.short {
		return gridParams{budget: 30_000, mixLimit: 2}
	}
	return gridParams{budget: 50_000}
}

func (p gridParams) mixes() []workload.Mix {
	ms := workload.MixesFor(gridCores)
	if p.mixLimit > 0 && len(ms) > p.mixLimit {
		ms = ms[:p.mixLimit]
	}
	return ms
}

func (p gridParams) machine() cpu.Config {
	cfg := cpu.DefaultConfig(gridCores)
	cfg.InstrBudget = p.budget
	return cfg
}

// roundSeed gives every round of a run its own experiment seed (never
// 0, which the experiments map to 1).
func roundSeed(seed uint64, round int) uint64 { return seed*1000 + uint64(round) + 1 }

// gridRound is one timed grid.
type gridRound struct {
	seed        uint64
	wall, cpuS  float64
	d           counters
	res         *experiments.MulticoreResult
	cellsPerRun int
}

func runGridRound(opts experiments.Options, seed uint64, tr *tracer) gridRound {
	cpu.ResetTapes()
	opts.Seed = seed
	w := openWindow()
	id, start := tr.begin()
	res := experiments.MulticoreComparison(gridCores, opts)
	tr.end(id, start, 0, 0, "experiments.MulticoreComparison")
	wall, c, d := w.close()
	return gridRound{seed: seed, wall: wall, cpuS: c, d: d, res: res,
		cellsPerRun: len(res.Mixes) * len(res.Policies)}
}

// runRounds runs grids until seconds have elapsed (at least one).
func runRounds(opts experiments.Options, seconds float64, seed uint64, tr *tracer) []gridRound {
	var rounds []gridRound
	start := nowNS()
	for len(rounds) == 0 || float64(nowNS()-start)/1e9 < seconds {
		rounds = append(rounds, runGridRound(opts, roundSeed(seed, len(rounds)), tr))
	}
	return rounds
}

func runGrid(rc runConfig) (*outcome, error) {
	p := gridParamsFor(rc)
	o := newOutcome()

	// Set-up is what a journaled sweep process does before its first
	// cell: start, initialize the program's packages and open a fresh
	// journal.
	setup, err := processSetups(rc, "grid", gridSetups)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(rc.workdir, "grid")
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	jnl, _, err := experiments.OpenSweepJournal(filepath.Join(base, "sweep.journal"), false)
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	opts := experiments.Options{
		Budget:   p.budget,
		MixLimit: p.mixLimit,
		Parallel: rc.nproc,
		Journal:  jnl,
	}

	var tr *tracer
	if rc.trace {
		tr = &tracer{}
	}
	w := openWindow()
	rounds := runRounds(opts, rc.seconds, rc.seed, tr)
	wall, cpuS, total := w.close()

	var walls, cpus, rates, gains []float64
	cells := 0
	for _, r := range rounds {
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpuS)
		rates = append(rates, float64(r.d.instructions)/r.wall/1e6)
		cells += r.cellsPerRun
		gains = append(gains, r.res.GeomeanNorm["NUcache"]-1)
		// State guards: fresh seeds mean no cell may come from a cache,
		// and the replay path must have recorded tapes.
		if r.d.cacheHits != 0 {
			o.problemf("grid round seed %d: %d cells served from cache", r.seed, r.d.cacheHits)
		}
		if r.d.tapesRecorded == 0 {
			o.problemf("grid round seed %d: no tapes recorded", r.seed)
		}
		o.attempted += int64(r.cellsPerRun)
	}
	// A run holds 10-20 grids, too few for the serving tail rule to reach
	// a percentile; the grid's tail is the nearest-rank p90 instead.
	sortedWalls := append([]float64(nil), walls...)
	sort.Float64s(sortedWalls)
	tailWall := rank(sortedWalls, 90)
	o.values["setup_s"] = setup
	o.values["sim_minstr_per_s"] = median(rates)
	o.values["cpu_s"] = median(cpus)
	o.values["lat_p50_ms"] = median(walls) * 1e3
	o.values["lat_tail_ms"] = tailWall * 1e3
	o.values["req_per_s"] = float64(rounds[0].cellsPerRun) / median(walls)
	o.values["peak_rss_mb"] = peakRSSMB()
	o.notef("grid: %d rounds of E7 (%d mixes x %d policies, budget %d instr/core, parallel %d); latency is per grid, req_per_s is cells per median grid; tail is p90 of n=%d",
		len(rounds), len(rounds[0].res.Mixes), len(rounds[0].res.Policies), p.budget, rc.nproc, len(walls))
	o.notef("paper: NUcache geomean weighted-speedup gain over LRU on 4 cores: simulated %+.1f%% (median of %d grids) vs paper %+.0f%%; this simulator is a reconstruction and is not validated against hardware",
		100*median(gains), len(gains), 100*paperGain4)
	rounds[0].res.Table().Render(os.Stdout)

	// Output checks, outside the timed window.
	compared := 0
	for _, r := range rounds {
		compared += checkGridRound(r, p, o)
	}
	o.notef("checks: grid: %d of %d grids compared with stored direct-simulation digests, 2 cells per grid recomputed with replay disabled",
		compared, len(rounds))

	if rc.trace {
		o.putCounters(total)
		o.values["sim.cpu_busy_frac"] = cpuS / (wall * float64(rc.nproc))
		// Every cell is one scheduler job. The time jobs hold a worker slot
		// (nucache_sim_wall_ns) beyond the CPU the process used is time a
		// cell spends blocked on its row's leader.
		o.values["sim.sched_wait_ms"] = max(0, float64(total.simWallNS)/1e9-cpuS) / float64(cells) * 1e3
		o.notef("trace: grid cells held worker slots for %.1fs in %.1fs of wall on %d workers using %.1fs of CPU: %.1f ms per cell not computing",
			float64(total.simWallNS)/1e9, wall, rc.nproc, cpuS, o.values["sim.sched_wait_ms"])
		if err := traceGrid(rc, p, opts, rounds, tr, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceGrid fills the rest of the per-layer metrics: one round
// decomposed into its public calls and the layer probes on one row's
// inputs.
func traceGrid(rc runConfig, p gridParams, opts experiments.Options, rounds []gridRound, tr *tracer, o *outcome) error {
	// The first round again, decomposed: the same cell jobs, row sharing
	// and alone runs experiments.MulticoreComparison performs, issued by
	// the benchmark through sim.RunMachineGrid and sim.RunMachineOneShot
	// so each call gets a span. It is a replica of the program's row
	// scheduling, so every cell it scores is checked against the round.
	ref := rounds[0]
	seed := ref.seed
	dt := &tracer{}
	table, err := decomposeGrid(rc, p, seed, opts.Journal, dt)
	if err != nil {
		return err
	}
	specs := experiments.StandardPolicies()
	for i, row := range table {
		for j, mm := range row {
			got, _ := json.Marshal(mm)
			want, _ := json.Marshal(ref.res.WS[i][specs[j].Name])
			if string(got) != string(want) {
				o.problemf("decomposed grid seed %d: %s under %s differs from experiments.MulticoreComparison", seed, ref.res.Mixes[i].Name, specs[j].Name)
				o.failed++
			}
		}
	}
	spans := dt.snapshot()
	o.values["experiments.row_s"] = median(durations(spans, "sim.RunMachineGrid")) / 1e9
	o.values["experiments.alone_s"] = median(durations(spans, "sim.RunMachineOneShot")) / 1e9
	waits := durations(spans, "experiments.row_wait")
	cellsN := len(durations(spans, "experiments.cell"))
	o.values["http.overhead_ms.sim_hit"] = 0
	o.values["http.overhead_ms.advise"] = 0
	o.values["trace.coverage_frac"] = coverage(spans, rc.nproc)
	o.values["trace.overhead_frac"] = overheadFrac(spans, rc.nproc, 0)
	o.notef("trace: grid decomposed at seed %d: %d cells, each checked against the timed round; %d wait on their row (median %.1f ms); row median %.3fs, alone median %.3fs; %d spans",
		seed, cellsN, len(waits), median(waits)/1e6, o.values["experiments.row_s"], o.values["experiments.alone_s"], len(spans))
	o.notef("trace: http.overhead_ms.* are 0: the grid sends no HTTP requests")

	var reqs [][]byte
	mix := p.mixes()[0]
	for _, s := range experiments.StandardPolicies() {
		body, _ := json.Marshal(sim.Request{Mix: mix.Name, Policy: s.Name, Budget: p.budget, Seed: seed})
		reqs = append(reqs, body)
	}
	if err := probeLayers(probeInput{
		cfg: p.machine(), mix: mix, seed: seed, result: table[0][0],
		requests: reqs, dir: rc.workdir, nproc: rc.nproc,
	}, o); err != nil {
		return err
	}
	dt.mu.Lock()
	dt.spans = append(dt.spans, tr.snapshot()...)
	dt.mu.Unlock()
	return dt.write(filepath.Join(rc.workdir, fmt.Sprintf("spans-grid-seed%d.json", rc.seed)))
}

// journalRecord has the shape of a sweep journal's completion record.
type journalRecord struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
}

// decomposeGrid runs one grid the way experiments.MulticoreComparison
// does — one scheduler job per cell in row-major order, the first cell
// of a row to run computes the whole row in one sim.RunMachineGrid call
// while its siblings wait, alone runs memoized per benchmark, every cell
// encoded and journaled — and records a span around each public call.
// It returns every cell's metrics, indexed [mix][policy].
func decomposeGrid(rc runConfig, p gridParams, seed uint64, jnl *journal.Journal, tr *tracer) ([][]*experiments.MixMetrics, error) {
	cpu.ResetTapes()
	cfg := p.machine()
	alone1 := cfg
	alone1.Cores = 1
	mixes := p.mixes()
	specs := experiments.StandardPolicies()
	sched := sim.NewScheduler(rc.nproc, nil)

	type row struct {
		once sync.Once
		res  [][]cpu.CoreResult
	}
	rows := make([]row, len(mixes))
	type aloneRun struct {
		once sync.Once
		ipc  float64
	}
	var aloneMu sync.Mutex
	alones := map[string]*aloneRun{}
	aloneIPC := func(bench string, parent, req int64) float64 {
		aloneMu.Lock()
		a, ok := alones[bench]
		if !ok {
			a = &aloneRun{}
			alones[bench] = a
		}
		aloneMu.Unlock()
		a.once.Do(func() {
			id, st := tr.begin()
			res, _, _ := sim.RunMachineOneShot(alone1, func() cache.Policy { return policy.NewLRU() },
				workload.Mix{Name: "alone/" + bench, Members: []string{bench}}, seed, false)
			tr.end(id, st, parent, req, "sim.RunMachineOneShot")
			a.ipc = res[0].IPC()
		})
		return a.ipc
	}

	rootID, rootStart := tr.begin()
	table := make([][]*experiments.MixMetrics, len(mixes))
	for i := range table {
		table[i] = make([]*experiments.MixMetrics, len(specs))
	}
	var jobs []sim.Job
	for i, m := range mixes {
		for j, s := range specs {
			i, j, m, s := i, j, m, s
			cell := int64(i*len(specs) + j + 1)
			jobs = append(jobs, sim.Job{Run: func(context.Context) (any, error) {
				cellID, cellStart := tr.begin()
				leader := false
				waitID, waitStart := tr.begin()
				rows[i].once.Do(func() {
					leader = true
					newPols := make([]func() cache.Policy, len(specs))
					for k, sp := range specs {
						sp := sp
						newPols[k] = func() cache.Policy { return sp.New(cfg.Cores, cfg.LLC.Ways) }
					}
					id, st := tr.begin()
					rows[i].res, _, _ = sim.RunMachineGrid(cfg, newPols, m, seed, false, false, sched)
					tr.end(id, st, cellID, cell, "sim.RunMachineGrid")
				})
				if !leader {
					tr.end(waitID, waitStart, cellID, cell, "experiments.row_wait")
				}
				res := rows[i].res[j]
				shared := make([]float64, len(res))
				alone := make([]float64, len(res))
				var misses, instr uint64
				for c, r := range res {
					shared[c] = r.IPC()
					alone[c] = aloneIPC(m.Members[c], cellID, cell)
					misses += r.LLCMisses
					instr += r.Instructions
				}
				mm := &experiments.MixMetrics{
					IPC:      shared,
					WS:       metrics.WeightedSpeedup(shared, alone),
					ANTT:     metrics.ANTT(shared, alone),
					HS:       metrics.HarmonicSpeedup(shared, alone),
					Fairness: metrics.Fairness(shared, alone),
				}
				if instr > 0 {
					mm.MPKI = 1000 * float64(misses) / float64(instr)
				}
				id, st := tr.begin()
				val, err := json.Marshal(mm)
				if err != nil {
					return nil, err
				}
				rec, err := json.Marshal(journalRecord{Key: fmt.Sprintf("perfbench/%d/%s/%s", seed, m.Name, s.Name), Val: val})
				tr.end(id, st, cellID, cell, "json.encode.result")
				if err != nil {
					return nil, err
				}
				id, st = tr.begin()
				err = jnl.Append(rec)
				tr.end(id, st, cellID, cell, "journal.append")
				if err != nil {
					return nil, err
				}
				table[i][j] = mm
				tr.end(cellID, cellStart, rootID, cell, "experiments.cell")
				return nil, nil
			}})
		}
	}
	for _, out := range sched.RunAll(context.Background(), jobs) {
		if out.Err != nil {
			return nil, fmt.Errorf("decomposed grid cell: %w", out.Err)
		}
	}
	tr.end(rootID, rootStart, 0, 0, "grid.round")
	return table, nil
}
