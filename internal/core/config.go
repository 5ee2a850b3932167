// Package core implements NUcache (Manikantan, Rajan, Govindarajan,
// HPCA 2011): a shared last-level cache organization that logically
// partitions each set's ways into MainWays and DeliWays. All lines live in
// the MainWays (LRU); lines evicted from the MainWays whose filling PC is
// in the currently *chosen* set of delinquent PCs are retained in the
// DeliWays (FIFO) for extra lifetime. A sampled Next-Use monitor measures,
// per delinquent PC, the distribution of distances (in per-set misses)
// between a line's eviction from the MainWays and its next use; an
// epoch-based cost-benefit analysis picks the chosen-PC set that maximizes
// the hits the DeliWays can deliver.
package core

import "fmt"

// Config parameterizes a NUcache policy.
type Config struct {
	// Ways is the cache's total associativity (MainWays + DeliWays).
	Ways int
	// DeliWays is the number of ways reserved for retained lines.
	// The remaining Ways-DeliWays are the MainWays. Zero disables
	// retention, degenerating to LRU over the MainWays only.
	DeliWays int
	// Candidates is how many top-miss PCs the selection considers.
	Candidates int
	// MaxChosen caps the chosen-PC set size (0 = Candidates).
	MaxChosen int
	// EpochMisses is the selection period, in LLC misses. The first epoch
	// is shortened (EpochMisses/8) so retention engages quickly after the
	// cold start.
	EpochMisses uint64
	// SampleShift selects 1-in-2^SampleShift sets for monitoring.
	SampleShift uint
	// VictimTableCap bounds the per-sampled-set victim bookkeeping table.
	VictimTableCap int
	// PromoteOnDeliHit re-promotes a DeliWay hit into the MainWays (MRU),
	// swapping the MainWays LRU line into the freed DeliWay slot.
	// Disabled, retained lines stay in FIFO order until they drain.
	PromoteOnDeliHit bool
	// HistLinear and HistLog2 set the next-use histogram layout:
	// HistLinear linear buckets then HistLog2 power-of-two buckets.
	HistLinear, HistLog2 int
	// AdaptiveDeliWays lets the epoch selection choose the
	// MainWays/DeliWays split too (every even D up to DeliWays, which
	// then acts as the maximum). An extension beyond the paper, whose D
	// is fixed at design time; measured by experiment E20.
	AdaptiveDeliWays bool
	// LifetimeSlack scales the rate-based DeliWays lifetime projection
	// before comparing it against observed next-use distances. The
	// unscaled model (1.0, the default) proved most accurate across the
	// workload suite: larger values over-select PCs and flood the FIFO
	// (see the E10 ablation). Zero selects the default of 1.
	LifetimeSlack float64
}

// DefaultDeliWays is the default retention split: 6 of a 16-way LLC's
// ways are DeliWays (see DESIGN.md).
const DefaultDeliWays = 6

// DefaultConfig returns the reconstruction's default parameters for a
// 16-way LLC (see DESIGN.md).
func DefaultConfig(ways int) Config {
	return Config{
		Ways:             ways,
		DeliWays:         DefaultDeliWays,
		Candidates:       32,
		EpochMisses:      100_000,
		SampleShift:      5,
		VictimTableCap:   64,
		PromoteOnDeliHit: true,
		HistLinear:       16,
		HistLog2:         16,
		LifetimeSlack:    1,
	}
}

// withDefaults fills zero fields and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Ways <= 0 {
		return c, fmt.Errorf("core: Ways must be positive, got %d", c.Ways)
	}
	if c.DeliWays < 0 || c.DeliWays >= c.Ways {
		return c, fmt.Errorf("core: DeliWays %d must be in [0, Ways-1=%d]", c.DeliWays, c.Ways-1)
	}
	if c.Candidates == 0 {
		c.Candidates = 32
	}
	if c.MaxChosen == 0 || c.MaxChosen > c.Candidates {
		c.MaxChosen = c.Candidates
	}
	if c.EpochMisses == 0 {
		c.EpochMisses = 100_000
	}
	if c.VictimTableCap == 0 {
		c.VictimTableCap = 64
	}
	if c.HistLinear == 0 {
		c.HistLinear = 16
	}
	if c.HistLog2 == 0 {
		c.HistLog2 = 16
	}
	if c.LifetimeSlack <= 0 {
		c.LifetimeSlack = 1
	}
	return c, nil
}

// MainWays returns the number of ways not reserved for retention.
func (c Config) MainWays() int { return c.Ways - c.DeliWays }
