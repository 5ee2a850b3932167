package experiments

import (
	"fmt"

	"nucache/internal/metrics"
)

// PrefetchResult holds E17 (extension): does NUcache's benefit survive
// when a next-line prefetcher is active? Prefetching converts some of the
// misses retention would have saved into prefetch hits, and prefetch
// traffic adds pollution retention must cope with — the classic
// interaction question for any LLC management proposal.
type PrefetchResult struct {
	Cores int
	// GainNoPf / GainPf are geometric-mean NUcache WS gains over the LRU
	// baseline without / with prefetching (degree 2).
	GainNoPf, GainPf float64
	// BaseWSNoPf / BaseWSPf are the mean LRU weighted speedups, showing
	// the prefetcher's own contribution.
	BaseWSNoPf, BaseWSPf float64
}

// PrefetchStudy runs experiment E17 on the 4-core mixes. Its
// no-prefetch cells are E7's LRU and NUcache cells, served from the grid
// cache once E7 has run. It returns nil when Options.Ctx interrupts it.
func PrefetchStudy(o Options) *PrefetchResult {
	o = o.withDefaults()
	res := &PrefetchResult{Cores: 4}
	var ok, okPf bool
	o.PrefetchDegree = 0
	res.GainNoPf, res.BaseWSNoPf, ok = o.nucacheGain()
	o.PrefetchDegree = 2
	res.GainPf, res.BaseWSPf, okPf = o.nucacheGain()
	if !ok || !okPf {
		return nil
	}
	return res
}

// Table renders E17.
func (r *PrefetchResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E17 (extension): NUcache with a degree-2 next-line prefetcher (%d-core mixes)", r.Cores),
		"configuration", "LRU WS (mean)", "NUcache gain over LRU")
	t.AddRow("no prefetch", metrics.F3(r.BaseWSNoPf), metrics.Pct(r.GainNoPf))
	t.AddRow("prefetch degree 2", metrics.F3(r.BaseWSPf), metrics.Pct(r.GainPf))
	return t
}
