// Package mrc is the miss-ratio-curve profiling and prediction
// subsystem: one profiling pass over a mix's recorded tapes produces a
// per-core Profile artifact (the hit count at every way allocation
// 1..W plus the NUcache next-use candidate profile), and a pure-Go
// analytical model answers any static-partition, shared-LRU or
// DeliWays what-if from that artifact in microseconds — no
// re-simulation.
//
// The exactness contract, which the differential and golden tests pin:
//
//   - Static way partitions ("part"): per-core hit/miss/access counts
//     are EXACT. The cores' address spaces are disjoint, so a core's
//     fixed a-way partition behaves as a private a-way LRU cache over
//     the same sets; by LRU stack inclusion the profiler's
//     full-associativity ATD hit counts at stack positions < a are
//     precisely that cache's hits. Predicted cycles (and IPC) are also
//     exact under flat memory, because replay-core cycles decompose
//     into policy-independent cycles plus per-event LLC/memory service
//     latencies that depend only on the demand hit/miss split. Under
//     banked DRAM the per-miss latency varies with row locality, so
//     hits stay exact and IPC carries a documented error bound.
//   - Shared LRU and NUcache: approximated by composing the per-core
//     curves through an effective-ways fixed point (occupancy
//     proportional to insertion rate, after arXiv 1907.12666's shared-
//     cache composition) plus, for NUcache, the paper's cost-benefit
//     selection run on the profiled next-use histograms.
package mrc

import (
	"fmt"

	"nucache/internal/cache"
	"nucache/internal/cpu"
)

// Version is the profile artifact format version.
const Version = 1

// Limits on decoded artifacts: profiles transit the content-addressed
// disk cache, so decoding must be total (error, never panic) and the
// model must be safe to run on anything Validate accepts. Ways are
// bounded by cache.MaxWays and cores by ways, which also bounds
// BestPartition's exhaustive walk over C(Ways-1, Cores-1) allocations:
// at most C(15,7) = 6,435, each one table lookup and one add on top of
// a Cores x Ways table of per-core IPCs.
const (
	maxSets     = 1 << 22
	maxHistLin  = 1024
	maxHistLog2 = 64
	maxPCs      = 4096
	// maxCount bounds every event counter far below overflow so the
	// model's integer arithmetic (counts times latencies) stays exact.
	maxCount = 1 << 50
)

// Profile is the content-addressed profiling artifact for one mix on
// one machine shape: everything the analytical model needs to answer
// allocation what-ifs.
type Profile struct {
	Version int      `json:"version"`
	Mix     string   `json:"mix"`
	Members []string `json:"members"`

	// Machine shape the tapes were recorded on.
	Cores     int    `json:"cores"`
	Ways      int    `json:"ways"`
	Sets      int    `json:"sets"`
	LineBytes int    `json:"line_bytes"`
	Budget    uint64 `json:"budget"`
	Seed      uint64 `json:"seed"`
	Warmup    uint64 `json:"warmup,omitempty"`
	L2        bool   `json:"l2,omitempty"`
	Prefetch  int    `json:"prefetch,omitempty"`
	DRAM      bool   `json:"dram,omitempty"`

	// LLCLatency is the per-access LLC service latency; MemLatency the
	// per-miss memory latency the model charges (the flat latency, or
	// the row hit/miss average when the shape uses banked DRAM — in
	// which case predicted cycles are approximate, see CyclesExact).
	LLCLatency uint64 `json:"llc_latency"`
	MemLatency uint64 `json:"mem_latency"`

	// HistLinear/HistLog2 give the next-use histogram layout shared by
	// every PCProfile.
	HistLinear int `json:"hist_linear"`
	HistLog2   int `json:"hist_log2"`

	PerCore []CoreProfile `json:"per_core"`
}

// CoreProfile is one core's measurement window (warmup excluded,
// matching the simulator's statistics window).
type CoreProfile struct {
	Core      int    `json:"core"`
	Benchmark string `json:"benchmark"`

	// Policy-independent window counters, straight off the tape
	// crossings. PICycles excludes LLC/memory service time.
	Instructions uint64 `json:"instructions"`
	PICycles     uint64 `json:"pi_cycles"`
	MemAccesses  uint64 `json:"mem_accesses"`
	L1Hits       uint64 `json:"l1_hits"`
	L1Misses     uint64 `json:"l1_misses"`

	// Accesses counts every LLC access the core issues in the window
	// (demand + prefetch + writeback, the same accounting the
	// simulator's per-core LLC counters use); DemandAccesses counts
	// only the demand accesses, whose misses stall the core.
	Accesses       uint64 `json:"accesses"`
	DemandAccesses uint64 `json:"demand_accesses"`

	// PosHits[i] is the window's ATD hits at LRU stack position i; the
	// prefix sum over positions < a is the core's exact hit count with
	// an a-way partition. DemandPosHits is the demand-only curve.
	PosHits       []uint64 `json:"pos_hits"`
	DemandPosHits []uint64 `json:"demand_pos_hits"`

	// SampledMisses and PCs are the next-use monitor's view (whole
	// profiled run, warmup included, one un-reset epoch), feeding the
	// NUcache cost-benefit model.
	SampledMisses uint64      `json:"sampled_misses"`
	PCs           []PCProfile `json:"pcs,omitempty"`
}

// PCProfile is one delinquent-PC candidate: the serialized form of
// core.PCStats.
type PCProfile struct {
	PC        uint64 `json:"pc"`
	Misses    uint64 `json:"misses"`
	Demotions uint64 `json:"demotions"`
	// NextUseCounts are the raw histogram buckets (layout given by the
	// profile's HistLinear/HistLog2); NextUseSum the recorded value sum
	// (so the mean — the selection's ordering key — round-trips).
	NextUseCounts []uint64 `json:"next_use_counts"`
	NextUseSum    uint64   `json:"next_use_sum"`
}

// Validate bounds-checks every field the analytical model indexes or
// multiplies, so that evaluation is total on validated profiles.
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("mrc: nil profile")
	}
	if p.Version != Version {
		return fmt.Errorf("mrc: profile version %d, want %d", p.Version, Version)
	}
	if p.Ways < 1 || p.Ways > cache.MaxWays {
		return fmt.Errorf("mrc: ways %d out of range", p.Ways)
	}
	// Every partition grants each core at least one way.
	if p.Cores < 1 || p.Cores > p.Ways {
		return fmt.Errorf("mrc: %d cores for %d ways", p.Cores, p.Ways)
	}
	if p.Sets < 1 || p.Sets > maxSets {
		return fmt.Errorf("mrc: sets %d out of range", p.Sets)
	}
	if p.LineBytes < 1 || p.LineBytes > 4096 {
		return fmt.Errorf("mrc: line bytes %d out of range", p.LineBytes)
	}
	if p.HistLinear < 1 || p.HistLinear > maxHistLin {
		return fmt.Errorf("mrc: hist linear %d out of range", p.HistLinear)
	}
	if p.HistLog2 < 0 || p.HistLog2 > maxHistLog2 {
		return fmt.Errorf("mrc: hist log2 %d out of range", p.HistLog2)
	}
	if p.LLCLatency > 1<<20 || p.MemLatency > 1<<20 {
		return fmt.Errorf("mrc: implausible latencies %d/%d", p.LLCLatency, p.MemLatency)
	}
	if p.Prefetch < 0 || p.Prefetch > cpu.MaxPrefetch {
		return fmt.Errorf("mrc: prefetch degree %d out of range", p.Prefetch)
	}
	if len(p.PerCore) != p.Cores {
		return fmt.Errorf("mrc: %d per-core profiles for %d cores", len(p.PerCore), p.Cores)
	}
	if len(p.Members) != p.Cores {
		return fmt.Errorf("mrc: %d members for %d cores", len(p.Members), p.Cores)
	}
	histLen := p.HistLinear + p.HistLog2 + 1
	for i := range p.PerCore {
		c := &p.PerCore[i]
		if c.Core != i {
			return fmt.Errorf("mrc: per-core entry %d labeled core %d", i, c.Core)
		}
		for _, v := range []uint64{c.Instructions, c.PICycles, c.MemAccesses, c.L1Hits,
			c.L1Misses, c.Accesses, c.DemandAccesses, c.SampledMisses} {
			if v > maxCount {
				return fmt.Errorf("mrc: core %d counter %d exceeds limit", i, v)
			}
		}
		if c.DemandAccesses > c.Accesses {
			return fmt.Errorf("mrc: core %d demand accesses %d > accesses %d", i, c.DemandAccesses, c.Accesses)
		}
		if len(c.PosHits) != p.Ways || len(c.DemandPosHits) != p.Ways {
			return fmt.Errorf("mrc: core %d hit curves sized %d/%d, want %d",
				i, len(c.PosHits), len(c.DemandPosHits), p.Ways)
		}
		var sum, dsum uint64
		for w := 0; w < p.Ways; w++ {
			if c.DemandPosHits[w] > c.PosHits[w] {
				return fmt.Errorf("mrc: core %d position %d demand hits exceed total hits", i, w)
			}
			sum += c.PosHits[w]
			dsum += c.DemandPosHits[w]
			if sum > maxCount || dsum > maxCount {
				return fmt.Errorf("mrc: core %d hit curve exceeds limit", i)
			}
		}
		if sum > c.Accesses {
			return fmt.Errorf("mrc: core %d curve hits %d > accesses %d", i, sum, c.Accesses)
		}
		if dsum > c.DemandAccesses {
			return fmt.Errorf("mrc: core %d demand curve hits %d > demand accesses %d", i, dsum, c.DemandAccesses)
		}
		if len(c.PCs) > maxPCs {
			return fmt.Errorf("mrc: core %d has %d PC profiles", i, len(c.PCs))
		}
		for j := range c.PCs {
			pc := &c.PCs[j]
			if len(pc.NextUseCounts) != histLen {
				return fmt.Errorf("mrc: core %d pc %d histogram sized %d, want %d",
					i, j, len(pc.NextUseCounts), histLen)
			}
			var total uint64
			for _, n := range pc.NextUseCounts {
				total += n
				if total > maxCount {
					return fmt.Errorf("mrc: core %d pc %d histogram exceeds limit", i, j)
				}
			}
			if pc.Misses > maxCount || pc.Demotions > maxCount {
				return fmt.Errorf("mrc: core %d pc %d counters exceed limit", i, j)
			}
		}
	}
	return nil
}
