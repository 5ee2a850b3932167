package experiments

// DRAMStudy runs experiment E18 (extension) on the 4-core mixes: do the
// conclusions survive a bank/row-buffer main-memory model instead of the
// flat miss latency? Under the DRAM model a policy's value depends on
// miss *locality* too, not just miss count. Its flat-memory cells are
// E7's LRU and NUcache cells, served from the grid cache once E7 has run.
// It returns nil when Options.Ctx interrupts it.
func DRAMStudy(o Options) *SweepResult {
	o = o.withDefaults()
	res := &SweepResult{
		ID:     18,
		Title:  "E18 (extension): memory-model sensitivity (4-core mixes)",
		Label:  "memory model",
		Column: "NUcache gain over LRU",
	}
	for _, model := range []struct {
		label string
		dram  bool
	}{{"flat 200-cycle", false}, {"16-bank row-buffer DRAM", true}} {
		o.dram = model.dram
		gain, _, ok := o.nucacheGain()
		if !ok {
			return nil
		}
		res.Points = append(res.Points, SweepPoint{Label: model.label, Geomean: gain})
	}
	return res
}
