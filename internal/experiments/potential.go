package experiments

import (
	"nucache/internal/cache"
	"nucache/internal/metrics"
	"nucache/internal/policy"
)

// PotentialRow is one benchmark's headroom measurement: LRU vs NUcache vs
// Belady's OPT on the same LLC reference stream.
type PotentialRow struct {
	Bench     string
	LRUMisses uint64
	NUMisses  uint64
	OPTMisses uint64
	// OPTReduction is the fraction of LRU misses OPT removes (headroom).
	OPTReduction float64
	// NUCaptured is the fraction of that headroom NUcache captures.
	NUCaptured float64
}

// PotentialResult holds E3 (headroom) and E14 (captured fraction).
type PotentialResult struct {
	Rows []PotentialRow
}

// Potential runs experiments E3/E14. Because the private L1 filters
// accesses independently of the LLC policy, the LLC reference stream is
// recorded once (under LRU) and replayed under Belady's OPT for an exact
// offline-optimal miss count on the identical stream.
func Potential(o Options) *PotentialResult {
	o = o.withDefaults()
	res := &PotentialResult{}
	ways := o.machine(1).LLC.Ways
	for _, b := range o.benchmarks() {
		// Pass 1: LRU with a recorder capturing the LLC line stream.
		lru, pol := o.runAlone(b, func() cache.Policy {
			return policy.NewRecorder(Baseline().New(1, ways))
		})
		addrs := pol.(*policy.Recorder).LineAddrs

		// Pass 2: OPT over the recorded stream (same budget → same stream).
		optRes, _ := o.runAlone(b, func() cache.Policy {
			return policy.NewOPT(policy.NextUseChain(addrs))
		})

		// Pass 3: NUcache.
		nu, _ := o.runAlone(b, func() cache.Policy { return NUcacheSpec().New(1, ways) })

		row := PotentialRow{
			Bench:     b.Name,
			LRUMisses: lru.LLCMisses,
			NUMisses:  nu.LLCMisses,
			OPTMisses: optRes.LLCMisses,
		}
		if lru.LLCMisses > 0 {
			headroom := float64(lru.LLCMisses) - float64(optRes.LLCMisses)
			row.OPTReduction = headroom / float64(lru.LLCMisses)
			if headroom > 0 {
				row.NUCaptured = (float64(lru.LLCMisses) - float64(nu.LLCMisses)) / headroom
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Table renders E3/E14.
func (r *PotentialResult) Table() *metrics.Table {
	t := metrics.NewTable("E3/E14: retention headroom — LRU vs NUcache vs Belady OPT (LLC misses)",
		"benchmark", "LRU", "NUcache", "OPT", "OPT reduction", "NU captured")
	for _, row := range r.Rows {
		t.AddRow(row.Bench,
			u64(row.LRUMisses), u64(row.NUMisses), u64(row.OPTMisses),
			metrics.F2(row.OPTReduction), metrics.F2(row.NUCaptured))
	}
	return t
}
