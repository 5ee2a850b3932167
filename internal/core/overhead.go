package core

// Hardware storage-overhead accounting, mirroring the paper's argument
// that NUcache needs only modest additional state: a PC tag per line, a
// chosen-PC table, and the sampled Next-Use monitor. All values are bits.

// overheadPCBits is the width of the stored (hashed, core-tagged) PC
// identifier. 20 bits keeps aliasing negligible for the ≤ few hundred
// delinquent PCs per workload.
const overheadPCBits = 20

// Overhead itemizes NUcache's storage relative to the host cache.
type Overhead struct {
	// PerLineBits is the added state on every cache line (PC id plus the
	// one MainWays/DeliWays membership bit folded into replacement state).
	PerLineBits int
	// LinesBits is PerLineBits summed over all lines.
	LinesBits int
	// MonitorBits covers sampled-set miss counters and victim tables.
	MonitorBits int
	// SelectionBits covers the candidate table (counters + histograms)
	// and the chosen-PC table.
	SelectionBits int
	// TotalBits is the full NUcache addition.
	TotalBits int
	// CacheBits approximates the host cache's data+tag storage.
	CacheBits int
}

// Percent returns TotalBits as a percentage of CacheBits.
func (o Overhead) Percent() float64 {
	if o.CacheBits == 0 {
		return 0
	}
	return 100 * float64(o.TotalBits) / float64(o.CacheBits)
}

// Overhead computes the storage model for a cache with the given set
// count, per-line tag width and line size.
func (c Config) Overhead(sets, tagBits, lineBytes int) Overhead {
	cfg, err := c.withDefaults()
	if err != nil {
		return Overhead{}
	}
	var o Overhead
	lines := sets * cfg.Ways

	o.PerLineBits = overheadPCBits + 1
	o.LinesBits = o.PerLineBits * lines

	sampledSets := sets >> cfg.SampleShift
	if sampledSets == 0 {
		sampledSets = 1
	}
	const missCounterBits = 16
	victimEntryBits := tagBits + overheadPCBits + missCounterBits
	o.MonitorBits = sampledSets * (missCounterBits + VictimTableCap*victimEntryBits)

	histBuckets := HistLinear + HistLog2 + 1
	candidateBits := overheadPCBits + 32 /*misses*/ + 16 /*demotions*/ + histBuckets*16
	o.SelectionBits = cfg.Candidates*candidateBits + cfg.MaxChosen*overheadPCBits

	o.TotalBits = o.LinesBits + o.MonitorBits + o.SelectionBits
	o.CacheBits = lines * (lineBytes*8 + tagBits + 8 /*state: valid, dirty, repl.*/)
	return o
}
