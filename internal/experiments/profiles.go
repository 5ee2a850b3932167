package experiments

import (
	"context"
	"fmt"

	"nucache/internal/mrc"
	"nucache/internal/sim"
)

// ProfileCell is one mix's capacity-advisor summary: the even-split
// baseline the hardware would get without guidance, the model's best
// static partition, and its best NUcache DeliWays split. The cell is a
// journaled, content-addressed unit — a crashed profile sweep resumes
// past completed mixes exactly like a simulation sweep does.
type ProfileCell struct {
	BestAlloc      []int   `json:"best_alloc"`
	EvenThroughput float64 `json:"even_throughput"`
	BestThroughput float64 `json:"best_throughput"`
	BestDeliWays   int     `json:"best_deliways"`
	DeliThroughput float64 `json:"deli_throughput"`
	// Evaluated counts model evaluations behind the partition search —
	// the work the advisor did instead of that many simulations.
	Evaluated int `json:"evaluated"`
}

// ProfileAdvisorSweep runs experiment E21: profile every 4-core mix once
// (through the mrc.profile.build failpoint, so the chaos suite can kill
// and resume it), then answer the partition search from the model alone.
// The reported point is the advisor's predicted throughput gain of its
// best static partition over the even split.
func ProfileAdvisorSweep(o Options) *SweepResult {
	o = o.withDefaults()
	mixes := o.mixes(4)
	cells := make([]cell[ProfileCell], len(mixes))
	for i, m := range mixes {
		req := sim.ProfileRequest{
			Mix: m.Name, Budget: o.Budget, Seed: o.Seed,
			Prefetch: o.prefetch, DRAM: o.dram,
		}
		cells[i] = cell[ProfileCell]{
			key:   "profileadvisor/v1|" + req.Canonical(),
			label: "advisor over " + m.Name,
			run: func(ctx context.Context) (*ProfileCell, error) {
				p, err := sim.ExecuteProfile(ctx, req)
				if err != nil {
					return nil, err
				}
				even, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyPart})
				if err != nil {
					return nil, err
				}
				best, err := mrc.BestPartition(p)
				if err != nil {
					return nil, err
				}
				bestD, err := mrc.BestDeliWays(p)
				if err != nil {
					return nil, err
				}
				return &ProfileCell{
					BestAlloc:      best.Alloc,
					EvenThroughput: even.Throughput,
					BestThroughput: best.Throughput,
					BestDeliWays:   bestD.DeliWays,
					DeliThroughput: bestD.Throughput,
					Evaluated:      best.Evaluated + bestD.Evaluated,
				}, nil
			},
		}
	}
	vals := runCells(o, cells)
	if vals == nil { // interrupted: completed cells are journaled
		return nil
	}
	res := &SweepResult{
		ID:     21,
		Title:  "E21 (extension): capacity advisor, best static partition vs even split (4-core mixes)",
		Column: "advisor partition gain",
	}
	for i, m := range mixes {
		c := vals[i]
		ratio := 0.0
		if c.EvenThroughput > 0 {
			ratio = c.BestThroughput / c.EvenThroughput
		}
		res.Points = append(res.Points, SweepPoint{
			Label:   fmt.Sprintf("%s best=%v D*=%d", m.Name, c.BestAlloc, c.BestDeliWays),
			Geomean: ratio,
		})
	}
	return res
}
