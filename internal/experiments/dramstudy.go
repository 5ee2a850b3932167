package experiments

import (
	"fmt"

	"nucache/internal/metrics"
)

// DRAMResult holds E18 (extension): do the conclusions survive a
// bank/row-buffer main-memory model instead of the flat miss latency?
// Under the DRAM model a policy's value depends on miss *locality* too,
// not just miss count.
type DRAMResult struct {
	Cores int
	// GainFlat / GainDRAM are geometric-mean NUcache WS gains over LRU
	// under the flat and the row-buffer memory models.
	GainFlat, GainDRAM float64
}

// DRAMStudy runs experiment E18 on the 4-core mixes. Its flat-memory
// cells are E7's LRU and NUcache cells, served from the grid cache once
// E7 has run. It returns nil when Options.Ctx interrupts it.
func DRAMStudy(o Options) *DRAMResult {
	o = o.withDefaults()
	res := &DRAMResult{Cores: 4}
	var ok, okDRAM bool
	o.UseDRAM = false
	res.GainFlat, _, ok = o.nucacheGain()
	o.UseDRAM = true
	res.GainDRAM, _, okDRAM = o.nucacheGain()
	if !ok || !okDRAM {
		return nil
	}
	return res
}

// Table renders E18.
func (r *DRAMResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E18 (extension): memory-model sensitivity (%d-core mixes)", r.Cores),
		"memory model", "NUcache gain over LRU")
	t.AddRow("flat 200-cycle", metrics.Pct(r.GainFlat))
	t.AddRow("16-bank row-buffer DRAM", metrics.Pct(r.GainDRAM))
	return t
}
