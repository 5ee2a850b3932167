package sim

import (
	"fmt"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/workload"
)

// CoreStat is one core's outcome in JSON-friendly form.
type CoreStat struct {
	Core         int     `json:"core"`
	Benchmark    string  `json:"benchmark"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	L1MissRate   float64 `json:"l1_miss_rate"`
	LLCAccesses  uint64  `json:"llc_accesses"`
	LLCHits      uint64  `json:"llc_hits"`
	LLCMisses    uint64  `json:"llc_misses"`
	LLCMPKI      float64 `json:"llc_mpki"`
}

// LLCStat is the shared cache's aggregate activity.
type LLCStat struct {
	Accesses   uint64  `json:"accesses"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Evictions  uint64  `json:"evictions"`
	Writebacks uint64  `json:"writebacks"`
	HitRate    float64 `json:"hit_rate"`
}

// DRAMStat reports the optional bank/row-buffer memory model.
type DRAMStat struct {
	Accesses   uint64  `json:"accesses"`
	RowHitRate float64 `json:"row_hit_rate"`
}

// NUcacheStat exposes the policy internals the text harness prints.
type NUcacheStat struct {
	Epochs         int      `json:"epochs"`
	DeliHits       uint64   `json:"deli_hits"`
	DeliInsertions uint64   `json:"deli_insertions"`
	Demotions      uint64   `json:"demotions"`
	LastChosen     int      `json:"last_chosen"`
	LastCandidates int      `json:"last_candidates"`
	LastLifetime   uint64   `json:"last_lifetime"`
	LastBenefit    uint64   `json:"last_benefit"`
	ChosenPCs      []string `json:"chosen_pcs,omitempty"`
}

// Result is a completed simulation in structured form. It is fully
// deterministic — a function of the Request only — so it can live in the
// content-addressed cache. Timing of the simulation itself (wall clock)
// is deliberately excluded; the scheduler reports that per run.
type Result struct {
	// Mix and Members identify the workload as simulated.
	Mix     string   `json:"mix"`
	Members []string `json:"members"`
	// Policy is the LLC policy's self-reported name.
	Policy string `json:"policy"`
	// Cores is the machine width; LLCBytes the shared cache size.
	Cores    int `json:"cores"`
	LLCBytes int `json:"llc_bytes"`
	// Budget and Seed echo the request after normalization.
	Budget uint64 `json:"budget"`
	Seed   uint64 `json:"seed"`
	// Instructions is the total retired across cores (measured windows).
	Instructions uint64 `json:"instructions"`
	// PerCore holds one entry per core, in core order.
	PerCore []CoreStat `json:"per_core"`
	// LLC aggregates the shared cache.
	LLC LLCStat `json:"llc"`
	// DRAM is present only under the DRAM memory model.
	DRAM *DRAMStat `json:"dram,omitempty"`
	// NUcache is present only when the policy is NUcache.
	NUcache *NUcacheStat `json:"nucache,omitempty"`
	// PrefetchIssued counts next-line prefetches (0 when disabled).
	PrefetchIssued uint64 `json:"prefetch_issued,omitempty"`
}

// collect builds a Result from a completed system run, for Execute and
// ExecuteStreams; sys is either a *cpu.System or a *cpu.ReplaySystem —
// the two are bit-identical at this surface.
func collect(mix workload.Mix, policy cache.Policy, cfg cpu.Config, budget, seed uint64, results []cpu.CoreResult, sys cpu.Machine) *Result {
	res := &Result{
		Mix:      mix.Name,
		Members:  mix.Members,
		Policy:   policy.Name(),
		Cores:    cfg.Cores,
		LLCBytes: cfg.LLC.SizeBytes,
		Budget:   budget,
		Seed:     seed,
	}
	for i, r := range results {
		res.Instructions += r.Instructions
		res.PerCore = append(res.PerCore, CoreStat{
			Core:         i,
			Benchmark:    mix.Members[i],
			Instructions: r.Instructions,
			Cycles:       r.Cycles,
			IPC:          r.IPC(),
			L1MissRate:   r.L1MissRate(),
			LLCAccesses:  r.LLCAccesses,
			LLCHits:      r.LLCHits,
			LLCMisses:    r.LLCMisses,
			LLCMPKI:      r.LLCMPKI(),
		})
	}
	llc := sys.LLC().Stats
	res.LLC = LLCStat{
		Accesses:   llc.Accesses,
		Hits:       llc.Hits,
		Misses:     llc.Misses,
		Evictions:  llc.Evictions,
		Writebacks: llc.Writebacks,
		HitRate:    llc.HitRate(),
	}
	if d := sys.DRAM(); d != nil {
		res.DRAM = &DRAMStat{Accesses: d.Accesses, RowHitRate: d.RowHitRate()}
	}
	res.PrefetchIssued = sys.Prefetches()
	if nu, ok := policy.(*core.NUcache); ok {
		st := &NUcacheStat{
			Epochs:         nu.Epochs,
			DeliHits:       nu.DeliHits,
			DeliInsertions: nu.DeliInsertions,
			Demotions:      nu.Demotions,
			LastChosen:     nu.LastReport.Chosen,
			LastCandidates: nu.LastReport.Candidates,
			LastLifetime:   nu.LastReport.Lifetime,
			LastBenefit:    nu.LastReport.Benefit,
		}
		for _, pc := range nu.ChosenPCs() {
			c, raw := cpu.UntagPC(pc)
			st.ChosenPCs = append(st.ChosenPCs, fmt.Sprintf("c%d:%#x", c, raw))
		}
		res.NUcache = st
	}
	return res
}
