package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/metrics"
	"nucache/internal/workload"
)

// observeBench runs one benchmark alone under a retention-disabled NUcache
// (pure LRU behaviour) with an effectively infinite epoch, so the Next-Use
// monitor accumulates the whole run — the setup behind the paper's
// characterization figures.
func (o Options) observeBench(b workload.Benchmark) *core.NUcache {
	nuCfg := core.DefaultConfig(o.machine(1).LLC.Ways)
	nuCfg.DeliWays = 0
	nuCfg.EpochMisses = math.MaxUint64 / 2
	nuCfg.Candidates = 64
	_, pol := o.runAlone(b, func() cache.Policy { return core.MustNew(nuCfg) })
	return pol.(*core.NUcache)
}

// DelinquencyRow is one benchmark's miss-skew measurement.
type DelinquencyRow struct {
	Bench       string
	TotalMisses uint64
	// TopK[k] is the fraction of all LLC misses produced by the k most
	// delinquent PCs, for k in {1, 5, 10, 20}.
	Top1, Top5, Top10, Top20 float64
	// PCs is the number of distinct missing PCs observed.
	PCs int
}

// DelinquencyResult holds E1.
type DelinquencyResult struct {
	Rows []DelinquencyRow
}

// Delinquency runs experiment E1: how concentrated are LLC misses across
// static PCs? (The paper's motivating observation: a handful of
// delinquent PCs cause most misses.)
func Delinquency(o Options) *DelinquencyResult {
	o = o.withDefaults()
	res := &DelinquencyResult{}
	for _, b := range o.benchmarks() {
		nu := o.observeBench(b)
		mon := nu.Monitor()
		top := mon.TopCandidates(64)
		total := mon.TotalMisses()
		row := DelinquencyRow{Bench: b.Name, TotalMisses: total, PCs: len(top)}
		if total > 0 {
			var cum uint64
			for i, p := range top {
				cum += p.Misses
				switch i + 1 {
				case 1:
					row.Top1 = float64(cum) / float64(total)
				case 5:
					row.Top5 = float64(cum) / float64(total)
				case 10:
					row.Top10 = float64(cum) / float64(total)
				case 20:
					row.Top20 = float64(cum) / float64(total)
				}
			}
			// Fill trailing ks when fewer PCs exist than the threshold.
			frac := float64(cum) / float64(total)
			if len(top) < 5 {
				row.Top5 = frac
			}
			if len(top) < 10 {
				row.Top10 = frac
			}
			if len(top) < 20 {
				row.Top20 = frac
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Table renders E1.
func (r *DelinquencyResult) Table() *metrics.Table {
	t := metrics.NewTable("E1: delinquent-PC miss skew (fraction of LLC misses from top-k PCs)",
		"benchmark", "misses", "PCs", "top-1", "top-5", "top-10", "top-20")
	for _, row := range r.Rows {
		t.AddRow(row.Bench,
			strconv.FormatUint(row.TotalMisses, 10),
			strconv.Itoa(row.PCs),
			metrics.F2(row.Top1), metrics.F2(row.Top5), metrics.F2(row.Top10), metrics.F2(row.Top20))
	}
	return t
}

// NextUseRow describes one delinquent PC's next-use distance profile.
type NextUseRow struct {
	Bench         string
	PC            uint64
	Misses        uint64
	Reuses        uint64
	Mean          float64
	P25, P50, P75 uint64
	// Within64 is the fraction of observed distances <= 64 per-set misses
	// (comfortably coverable by DeliWays).
	Within64 float64
}

// NextUseResult holds E2.
type NextUseResult struct {
	Rows []NextUseRow
}

// NextUseProfile runs experiment E2: per-delinquent-PC next-use distance
// distributions (the paper's DelinquentPC → Next-Use characteristic:
// distances cluster per PC).
func NextUseProfile(o Options) *NextUseResult {
	o = o.withDefaults()
	res := &NextUseResult{}
	for _, b := range o.benchmarks() {
		nu := o.observeBench(b)
		for _, p := range nu.Monitor().TopCandidates(5) {
			row := NextUseRow{
				Bench:  b.Name,
				PC:     p.PC,
				Misses: p.Misses,
				Reuses: p.NextUse.Total(),
				Mean:   p.NextUse.Mean(),
				P25:    p.NextUse.Quantile(0.25),
				P50:    p.NextUse.Quantile(0.50),
				P75:    p.NextUse.Quantile(0.75),
			}
			if p.NextUse.Total() > 0 {
				row.Within64 = float64(p.NextUse.CountAtMost(64)) / float64(p.NextUse.Total())
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// Table renders E2.
func (r *NextUseResult) Table() *metrics.Table {
	t := metrics.NewTable("E2: Next-Use distance profile of top delinquent PCs (per-set misses)",
		"benchmark", "pc", "misses", "reuses", "mean", "p25", "p50", "p75", "<=64")
	for _, row := range r.Rows {
		t.AddRow(row.Bench, fmtPC(row.PC),
			strconv.FormatUint(row.Misses, 10), strconv.FormatUint(row.Reuses, 10),
			metrics.F2(row.Mean),
			strconv.FormatUint(row.P25, 10), strconv.FormatUint(row.P50, 10), strconv.FormatUint(row.P75, 10),
			metrics.F2(row.Within64))
	}
	return t
}

// DumpHistograms writes each selected benchmark's top delinquent PCs'
// raw next-use histograms — the per-PC distribution detail behind E2.
func DumpHistograms(o Options, w io.Writer) {
	o = o.withDefaults()
	for _, b := range o.benchmarks() {
		nu := o.observeBench(b)
		fmt.Fprintf(w, "%s:\n", b.Name)
		for _, p := range nu.Monitor().TopCandidates(8) {
			fmt.Fprintf(w, "  %s misses=%d demotions=%d %s\n",
				fmtPC(p.PC), p.Misses, p.Demotions, p.NextUse)
		}
	}
}
