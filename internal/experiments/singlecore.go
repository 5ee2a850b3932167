package experiments

import (
	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/metrics"
	"nucache/internal/stats"
	"nucache/internal/workload"
)

// SingleCoreRow is one benchmark's E5 measurement.
type SingleCoreRow struct {
	Bench    string
	Class    workload.Class
	BaseIPC  float64
	NUIPC    float64
	BaseMPKI float64
	NUMPKI   float64
	// Speedup is NUIPC / BaseIPC.
	Speedup float64
}

// SingleCoreResult holds E5.
type SingleCoreResult struct {
	Rows []SingleCoreRow
	// Geomean is the geometric-mean speedup across benchmarks.
	Geomean float64
}

// SingleCore runs experiment E5: per-benchmark NUcache speedup over the
// LRU baseline on a single core.
func SingleCore(o Options) *SingleCoreResult {
	o = o.withDefaults()
	res := &SingleCoreResult{}
	var speedups []float64
	ways := o.machine(1).LLC.Ways
	for _, b := range o.benchmarks() {
		run := func(spec PolicySpec) cpu.CoreResult {
			r, _ := o.runAlone(b, func() cache.Policy { return spec.New(1, ways) })
			return r
		}
		base := run(Baseline())
		nu := run(NUcacheSpec())
		row := SingleCoreRow{
			Bench:    b.Name,
			Class:    b.Class,
			BaseIPC:  base.IPC(),
			NUIPC:    nu.IPC(),
			BaseMPKI: base.LLCMPKI(),
			NUMPKI:   nu.LLCMPKI(),
		}
		if row.BaseIPC > 0 {
			row.Speedup = row.NUIPC / row.BaseIPC
		}
		res.Rows = append(res.Rows, row)
		if row.Speedup > 0 {
			speedups = append(speedups, row.Speedup)
		}
	}
	res.Geomean = stats.GeoMean(speedups)
	return res
}

// Table renders E5.
func (r *SingleCoreResult) Table() *metrics.Table {
	t := metrics.NewTable("E5: single-core NUcache vs LRU",
		"benchmark", "class", "LRU IPC", "NUcache IPC", "LRU MPKI", "NUcache MPKI", "speedup")
	for _, row := range r.Rows {
		t.AddRow(row.Bench, string(row.Class),
			metrics.F3(row.BaseIPC), metrics.F3(row.NUIPC),
			metrics.F2(row.BaseMPKI), metrics.F2(row.NUMPKI),
			metrics.Pct(row.Speedup))
	}
	t.AddRow("geomean", "", "", "", "", "", metrics.Pct(r.Geomean))
	return t
}
