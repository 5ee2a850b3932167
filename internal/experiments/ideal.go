package experiments

import (
	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/metrics"
	"nucache/internal/policy"
)

// IdealRow compares NUcache's PC-proxy retention against an oracle that
// retains on perfect next-use knowledge under the same MainWays/DeliWays
// split, per benchmark.
type IdealRow struct {
	Bench        string
	LRUMisses    uint64
	NUMisses     uint64
	OracleMisses uint64
	// ProxyQuality is the fraction of the oracle's miss reduction that
	// NUcache's PC-based selection captures (1.0 = as good as knowing
	// the future; can exceed 1 when the fallback's full-LRU mode beats
	// the oracle's fixed split).
	ProxyQuality float64
}

// IdealResult holds E16 (extension; not a paper figure).
type IdealResult struct {
	Rows []IdealRow
}

// IdealRetention runs experiment E16: how close does the PC-based
// selection come to oracle retention with the same M/D split? The oracle
// window matches NUcache's steady-state FIFO lifetime scale: DeliWays
// drains of the whole cache expressed in LLC accesses.
func IdealRetention(o Options) *IdealResult {
	o = o.withDefaults()
	res := &IdealResult{}
	cfg := o.machine(1)
	nuCfg := core.DefaultConfig(cfg.LLC.Ways)
	for _, b := range o.benchmarks() {
		// Pass 1: LRU baseline + recorded LLC line stream.
		lru, pol := o.runAlone(b, func() cache.Policy {
			return policy.NewRecorder(Baseline().New(1, cfg.LLC.Ways))
		})
		addrs := pol.(*policy.Recorder).LineAddrs

		// Pass 2: NUcache.
		nu, _ := o.runAlone(b, func() cache.Policy { return NUcacheSpec().New(1, cfg.LLC.Ways) })

		// Pass 3: oracle retention on the recorded stream. Window: the
		// per-set DeliWays capacity times the set count, scaled by the
		// stream's accesses-per-miss so it expresses the same lifetime
		// NUcache's cost-benefit projects.
		window := uint64(nuCfg.DeliWays * cfg.LLC.Sets())
		if lru.LLCMisses > 0 {
			window *= uint64(len(addrs))/lru.LLCMisses + 1
		}
		orc, _ := o.runAlone(b, func() cache.Policy {
			return policy.NewOracleRetention(nuCfg.MainWays(), nuCfg.DeliWays,
				window, policy.NextUseChain(addrs))
		})

		row := IdealRow{
			Bench:        b.Name,
			LRUMisses:    lru.LLCMisses,
			NUMisses:     nu.LLCMisses,
			OracleMisses: orc.LLCMisses,
		}
		if saved := int64(lru.LLCMisses) - int64(orc.LLCMisses); saved > 0 {
			row.ProxyQuality = float64(int64(lru.LLCMisses)-int64(nu.LLCMisses)) / float64(saved)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Table renders E16.
func (r *IdealResult) Table() *metrics.Table {
	t := metrics.NewTable("E16 (extension): PC-proxy vs oracle retention, same Main/DeliWays split (LLC misses)",
		"benchmark", "LRU", "NUcache", "oracle", "proxy quality")
	for _, row := range r.Rows {
		t.AddRow(row.Bench, u64(row.LRUMisses), u64(row.NUMisses), u64(row.OracleMisses),
			metrics.F2(row.ProxyQuality))
	}
	return t
}
