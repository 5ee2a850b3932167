package experiments

import (
	"fmt"
	"strconv"

	"nucache/internal/core"
	"nucache/internal/metrics"
	"nucache/internal/workload"
)

func u64(v uint64) string { return strconv.FormatUint(v, 10) }

// ConfigTable renders experiment E4: the simulated machine parameters
// (the paper's Table 1 equivalent), for the given core counts.
func ConfigTable(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("E4: system configuration",
		"parameter", "1/2 cores", "4 cores", "8 cores")
	row := func(name string, f func(cores int) string) {
		t.AddRow(name, f(2), f(4), f(8))
	}
	row("L1D per core", func(c int) string {
		l1 := o.machine(c).L1
		return fmt.Sprintf("%dKB %d-way", l1.SizeBytes>>10, l1.Ways)
	})
	row("shared LLC", func(c int) string {
		llc := o.machine(c).LLC
		return fmt.Sprintf("%dMB %d-way", llc.SizeBytes>>20, llc.Ways)
	})
	row("line size", func(c int) string {
		return fmt.Sprintf("%dB", o.machine(c).LLC.LineBytes)
	})
	row("L1 / LLC / memory latency", func(c int) string {
		m := o.machine(c)
		return fmt.Sprintf("%d / %d / %d cycles", m.L1Latency, m.LLCLatency, m.MemLatency)
	})
	row("NUcache Main/DeliWays", func(c int) string {
		cfg := core.DefaultConfig(o.machine(c).LLC.Ways)
		return fmt.Sprintf("%d / %d", cfg.MainWays(), cfg.DeliWays)
	})
	row("NUcache candidates / epoch", func(c int) string {
		cfg := core.DefaultConfig(o.machine(c).LLC.Ways)
		return fmt.Sprintf("%d PCs / %dk misses", cfg.Candidates, cfg.EpochMisses/1000)
	})
	row("monitor sampling / victim table", func(c int) string {
		cfg := core.DefaultConfig(o.machine(c).LLC.Ways)
		return fmt.Sprintf("1-in-%d sets / %d entries", 1<<cfg.SampleShift, cfg.VictimTableCap)
	})
	row("instruction budget per core", func(c int) string {
		return fmt.Sprintf("%dM", o.Budget/1_000_000)
	})
	return t
}

// OverheadTable renders experiment E15: NUcache storage overhead for each
// machine size (the paper's hardware-cost argument).
func OverheadTable(o Options) *metrics.Table {
	o = o.withDefaults()
	t := metrics.NewTable("E15: NUcache storage overhead",
		"machine", "per-line bits", "monitor KB", "selection KB", "total KB", "% of cache")
	for _, cores := range workload.MixWidths() {
		llc := o.machine(cores).LLC
		cfg := core.DefaultConfig(llc.Ways)
		// Tag bits for a 48-bit physical address space.
		sets := llc.Sets()
		tagBits := 48 - log2i(llc.LineBytes) - log2i(sets)
		ov := cfg.Overhead(sets, tagBits, llc.LineBytes)
		t.AddRow(
			fmt.Sprintf("%d-core %dMB", cores, llc.SizeBytes>>20),
			strconv.Itoa(ov.PerLineBits),
			metrics.F2(float64(ov.MonitorBits)/8/1024),
			metrics.F2(float64(ov.SelectionBits)/8/1024),
			metrics.F2(float64(ov.TotalBits)/8/1024),
			metrics.F2(ov.Percent()),
		)
	}
	return t
}

func log2i(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
