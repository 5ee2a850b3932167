package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/failpoint"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

// The record/replay fast path: every (mix, seed) is simulated under
// many LLC policies, but the synthetic generator and private L1/L2 are
// policy-independent. RunMachine records each core's filtered front end
// once (process-wide memo in internal/cpu) and replays only the shared
// LLC per policy — bit-identical to direct simulation, several times
// faster at grid scale. See EXPERIMENTS.md ("Record/replay cache").

// replayOff is the process-wide kill switch (SetReplayDisabled); the
// noReplay argument of RunMachine disables replay per call site.
var replayOff atomic.Bool

// SetReplayDisabled turns the record/replay fast path off (or back on)
// process-wide. With replay disabled every simulation runs the private
// hierarchy directly — useful for A/B debugging, since replay results
// are defined to be bit-identical.
func SetReplayDisabled(v bool) { replayOff.Store(v) }

// LaneBudget grants temporary extra parallelism to a RunMachineGrid
// row: TryBorrow acquires up to max extra worker tokens without
// blocking (returning how many it got, possibly zero) and Return gives
// them back. *Scheduler implements it over its worker semaphore; a nil
// budget means no extra workers are ever available and the row's lanes
// replay one after another. Only the benchmark's grid probe uses it.
type LaneBudget interface {
	TryBorrow(max int) int
	Return(n int)
}

// RunMachine runs one simulation of mix on cfg under a policy built by
// newPol, replaying recorded front ends when possible and falling back
// to direct simulation otherwise (replay disabled, or a dead tape: an
// LLC-quiet core, an untaggable stream, a corrupt frame). It returns
// the per-core results, the machine for result collection, and the
// policy instance actually used — on fallback after a failed replay
// attempt a fresh policy is built, because the abandoned replay has
// already mutated the first.
//
// RunMachine also owns retired-instruction accounting: it adds to
// InstructionsRetired exactly once per simulation it computes. Callers
// must not count again (and cached results are never re-counted).
func RunMachine(cfg cpu.Config, newPol func() cache.Policy, mix workload.Mix, seed uint64, noReplay bool) ([]cpu.CoreResult, cpu.Machine, cache.Policy) {
	return runMachine(cfg, newPol, mix, seed, noReplay, false)
}

// RunMachineOneShot is RunMachine for simulations that will replay their
// tapes exactly once (alone-IPC denominators): recording a fresh tape
// costs more than the single direct simulation it would replace, so this
// variant replays only when every member's tape was already recorded by
// some other run (a mix leading with the same benchmark) and simulates
// directly otherwise — never recording new tapes.
func RunMachineOneShot(cfg cpu.Config, newPol func() cache.Policy, mix workload.Mix, seed uint64, noReplay bool) ([]cpu.CoreResult, cpu.Machine, cache.Policy) {
	return runMachine(cfg, newPol, mix, seed, noReplay, true)
}

func runMachine(cfg cpu.Config, newPol func() cache.Policy, mix workload.Mix, seed uint64, noReplay, cachedOnly bool) ([]cpu.CoreResult, cpu.Machine, cache.Policy) {
	if !noReplay && !replayOff.Load() {
		if results, m, pol, ok := tryReplay(cfg, newPol, mix, seed, cachedOnly); ok {
			countRetired(results)
			return results, m, pol
		}
	}
	pol := newPol()
	sys := cpu.NewSystem(cfg, pol, mix.Streams(seed))
	results := sys.Run()
	countRetired(results)
	return results, sys, pol
}

// acquireMixTapes resolves (and unless cachedOnly, records on demand)
// one tape per mix member. Tapes are keyed by the member's seed
// (workload.MemberSeed), so a benchmark running alone shares its tape
// with every mix that leads with it. Nil tapes mean there is nothing
// to replay: a member or core count the direct path rejects with the
// real error, or a cachedOnly miss.
func acquireMixTapes(cfg cpu.Config, mix workload.Mix, seed uint64, cachedOnly bool) []*cpu.Tape {
	if len(mix.Members) != cfg.Cores {
		return nil
	}
	tapes := make([]*cpu.Tape, len(mix.Members))
	for i, name := range mix.Members {
		b, ok := workload.ByName(name)
		if !ok {
			return nil
		}
		id := memberTapeID(name, seed, i)
		if cachedOnly {
			t := cpu.LookupTape(id, cfg)
			if t == nil {
				return nil // one-shot: direct beats record+replay-once
			}
			tapes[i] = t
			continue
		}
		tapes[i] = cpu.AcquireTape(id, cfg,
			func() trace.Stream { return b.Stream(workload.MemberSeed(seed, i)) })
	}
	return tapes
}

// memberTapeID is the memo id of mix member i's tape: its benchmark and
// derived seed.
func memberTapeID(name string, seed uint64, i int) string {
	return fmt.Sprintf("%s@%d", name, workload.MemberSeed(seed, i))
}

func tryReplay(cfg cpu.Config, newPol func() cache.Policy, mix workload.Mix, seed uint64, cachedOnly bool) ([]cpu.CoreResult, cpu.Machine, cache.Policy, bool) {
	tapes := acquireMixTapes(cfg, mix, seed, cachedOnly)
	if tapes == nil {
		return nil, nil, nil, false
	}
	// The cpu.replay.run failpoint fails (or kills) a simulation at the
	// moment it commits to the replay path; an error here exercises the
	// same fall-back-to-direct-simulation edge a dead tape would.
	if err := failpoint.Inject("cpu.replay.run"); err != nil {
		countFallback(err)
		return nil, nil, nil, false
	}
	pol := newPol()
	rs := cpu.NewReplaySystem(cfg, pol, tapes)
	results, err := rs.Run()
	if err != nil {
		countFallback(err)
		return nil, nil, nil, false
	}
	TracesReplayed.Add(1)
	return results, rs, pol, true
}

// RunMachineGrid runs one simulation of mix on cfg per policy lane — a
// whole policy-grid row in one call. Lane i uses a policy built by
// newPols[i]; a nil builder skips that lane (its results/machine/policy
// come back nil). When replay is available the live lanes replay the
// mix's tapes as one cpu.MultiReplaySystem; otherwise each live lane
// independently takes the same replay-or-direct path RunMachine would.
// Either way every lane's results are bit-identical to a standalone
// RunMachine call, and retired-instruction accounting is per computed
// lane, exactly as if the lanes had been separate RunMachine calls.
//
// No program path calls it: each experiment grid cell is one
// RunMachine call. It exists, with the nucache_multireplay_* expvars it
// feeds, only for the benchmark's grid probes, which measure it against
// per-cell replay. The multi-lane replay is skipped (per-lane fallback, still
// bit-identical) when noMulti, when replay as a whole is off, when
// fewer than two lanes are live, or when the mix has no tapes.
//
// lanes is the optional worker budget: when non-nil, the row borrows
// idle scheduler tokens — capped at GOMAXPROCS-1 so a row never
// oversubscribes the box — and replays lanes on that many extra
// goroutines, returning the tokens when the row finishes. Results are
// byte-identical either way.
func RunMachineGrid(cfg cpu.Config, newPols []func() cache.Policy, mix workload.Mix, seed uint64, noReplay, noMulti bool, lanes LaneBudget) ([][]cpu.CoreResult, []cpu.Machine, []cache.Policy) {
	results := make([][]cpu.CoreResult, len(newPols))
	machines := make([]cpu.Machine, len(newPols))
	pols := make([]cache.Policy, len(newPols))
	live := 0
	for _, np := range newPols {
		if np != nil {
			live++
		}
	}
	if live > 1 && !noReplay && !noMulti && !replayOff.Load() {
		if tryMultiReplay(cfg, newPols, mix, seed, results, machines, pols, lanes) {
			return results, machines, pols
		}
	}
	for i, np := range newPols {
		if np == nil {
			continue
		}
		results[i], machines[i], pols[i] = runMachine(cfg, np, mix, seed, noReplay, false)
	}
	return results, machines, pols
}

// tryMultiReplay fills the grid outputs via one multi-policy replay.
// A false return means nothing was filled and the caller should run
// lanes individually.
func tryMultiReplay(cfg cpu.Config, newPols []func() cache.Policy, mix workload.Mix, seed uint64, results [][]cpu.CoreResult, machines []cpu.Machine, pols []cache.Policy, lanes LaneBudget) bool {
	tapes := acquireMixTapes(cfg, mix, seed, false)
	if tapes == nil {
		return false
	}
	// The cpu.multireplay.run failpoint fails (or kills) the grid at the
	// moment it commits to the multi-lane path, once per live lane so a
	// kill lands mid-grid regardless of which lane ordinal is armed; an
	// error degrades to per-lane replay, the same edge a dead tape would
	// exercise.
	for _, np := range newPols {
		if np == nil {
			continue
		}
		if err := failpoint.Inject("cpu.multireplay.run"); err != nil {
			countFallback(err)
			return false
		}
	}
	lanePols := make([]cache.Policy, 0, len(newPols))
	laneIdx := make([]int, 0, len(newPols))
	for i, np := range newPols {
		if np == nil {
			continue
		}
		lanePols = append(lanePols, np())
		laneIdx = append(laneIdx, i)
	}
	ms := cpu.NewMultiReplaySystem(cfg, lanePols, tapes)
	// The row's own worker slot replays lanes; extra workers come from
	// borrowed scheduler tokens, bounded by the spare CPUs (GOMAXPROCS-1:
	// the row's slot is already using one) and by the lanes that could
	// run concurrently. Tokens are held only for the duration of the row.
	workers := 1
	if lanes != nil {
		want := len(lanePols) - 1
		if spare := runtime.GOMAXPROCS(0) - 1; want > spare {
			want = spare
		}
		if want > 0 {
			borrowed := lanes.TryBorrow(want)
			workers += borrowed
			defer lanes.Return(borrowed)
		}
	}
	laneRes, err := ms.RunParallel(workers)
	if err != nil {
		countFallback(err)
		return false
	}
	MultiReplayRuns.Add(1)
	MultiReplayLanes.Add(int64(len(lanePols)))
	if workers > 1 {
		MultiReplayParallelRuns.Add(1)
		MultiReplayLaneWorkers.Add(int64(workers))
	}
	TracesReplayed.Add(int64(len(lanePols)))
	for li, i := range laneIdx {
		results[i] = laneRes[li]
		machines[i] = ms.Lane(li)
		pols[i] = lanePols[li]
		countRetired(laneRes[li])
	}
	return true
}

func countRetired(results []cpu.CoreResult) {
	var n uint64
	for _, r := range results {
		n += r.Instructions
	}
	InstructionsRetired.Add(int64(n))
}
