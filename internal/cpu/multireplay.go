package cpu

import (
	"sync"
	"sync/atomic"

	"nucache/internal/cache"
)

// MultiReplaySystem replays one set of tapes under several LLC
// policies: one independent single-policy ReplaySystem per lane over
// the shared tapes. Lanes share nothing but the tapes, which are safe
// under concurrent replay, so every lane's results are byte-identical
// to a standalone ReplaySystem however the lanes are scheduled — the
// grid-differential suite (multireplay_test.go) pins this against
// every registered policy and machine shape.
//
// Each lane is its own allocation, as each grid cell's replay is in the
// program: packed by value into one slice, lanes replaying in parallel
// measured 15-35% slower on a 2-vCPU host.
type MultiReplaySystem struct {
	lanes []*ReplaySystem
}

// NewMultiReplaySystem builds one replay lane per policy over the same
// tapes. Tapes must have been recorded for a config with the same front
// end (FrontEndKey), exactly as for NewReplaySystem; all lanes share the
// replay-side config (LLC geometry, latencies, DRAM, prefetch degree)
// and differ only in the LLC policy.
func NewMultiReplaySystem(cfg Config, pols []cache.Policy, tapes []*Tape) *MultiReplaySystem {
	ms := &MultiReplaySystem{lanes: make([]*ReplaySystem, len(pols))}
	for i, pol := range pols {
		ms.lanes[i] = NewReplaySystem(cfg, pol, tapes)
	}
	return ms
}

// Lanes returns the number of policy lanes.
func (ms *MultiReplaySystem) Lanes() int { return len(ms.lanes) }

// Lane exposes lane i's machine surface (LLC stats, DRAM, prefetches)
// after Run.
func (ms *MultiReplaySystem) Lane(i int) Machine { return ms.lanes[i] }

// LaneWritebacks returns lane i's posted-writeback count (the
// counterpart of ReplaySystem.Writebacks).
func (ms *MultiReplaySystem) LaneWritebacks(i int) uint64 {
	return ms.lanes[i].Writebacks
}

// Run replays every lane in turn and returns per-lane, per-core
// results, each byte-identical to what a single-policy ReplaySystem
// over the same tapes would return. An error in any lane (tape budget
// exhausted, corrupt tape, untaggable stream) fails the whole grid and
// the results are always nil, never partial.
func (ms *MultiReplaySystem) Run() ([][]CoreResult, error) {
	out := make([][]CoreResult, len(ms.lanes))
	for i := range ms.lanes {
		res, err := ms.lanes[i].Run()
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// RunParallel is Run with lanes replayed on up to workers goroutines.
// With one worker (or one lane) it is exactly Run. Errors behave as in
// Run; when several lanes fail, the lowest-numbered lane's error wins.
func (ms *MultiReplaySystem) RunParallel(workers int) ([][]CoreResult, error) {
	if workers > len(ms.lanes) {
		workers = len(ms.lanes)
	}
	if workers <= 1 {
		return ms.Run()
	}
	out := make([][]CoreResult, len(ms.lanes))
	errs := make([]error, len(ms.lanes))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ms.lanes); i = int(next.Add(1)) - 1 {
				out[i], errs[i] = ms.lanes[i].Run()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
