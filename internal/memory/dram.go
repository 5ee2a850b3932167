// Package memory models main memory behind the LLC. The default timing
// model in internal/cpu charges a flat miss latency; this package adds an
// optional bank/row-buffer DRAM model: each bank keeps one row open, and
// accesses that hit the open row are substantially cheaper than accesses
// that must precharge and activate a new row. The model is deliberately
// small — no command scheduling or refresh — but it captures the
// first-order effect an LLC policy has on memory: miss *locality*, not
// just miss count.
package memory

import (
	"fmt"
	"math/bits"
)

// Config describes the DRAM geometry and timing.
type Config struct {
	// Banks is the number of independent banks (power of two).
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// RowHitLatency is charged when the access falls in the open row.
	RowHitLatency uint64
	// RowMissLatency is charged when a new row must be activated.
	RowMissLatency uint64
}

// DefaultConfig returns a DDR-era main memory: 16 banks, 8KB rows,
// 140-cycle row hits, 250-cycle row misses (bracketing the flat 200-cycle
// latency of the simple model).
func DefaultConfig() Config {
	return Config{
		Banks:          16,
		RowBytes:       8 << 10,
		RowHitLatency:  140,
		RowMissLatency: 250,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("memory: banks %d not a positive power of two", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("memory: row size %d not a positive power of two", c.RowBytes)
	}
	if c.RowHitLatency == 0 || c.RowMissLatency < c.RowHitLatency {
		return fmt.Errorf("memory: latencies (%d, %d) must satisfy 0 < hit <= miss",
			c.RowHitLatency, c.RowMissLatency)
	}
	return nil
}

// DRAM is an open-row main-memory model.
type DRAM struct {
	cfg       Config
	rowShift  uint
	bankShift uint
	bankMask  uint64
	openRow   []uint64

	// Stats.
	Accesses uint64
	RowHits  uint64
}

const noOpenRow = ^uint64(0)

// New constructs a DRAM model; it panics on invalid configuration
// (experiment-setup error).
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &DRAM{
		cfg:       cfg,
		rowShift:  uint(bits.TrailingZeros(uint(cfg.RowBytes))),
		bankShift: uint(bits.TrailingZeros(uint(cfg.Banks))),
		bankMask:  uint64(cfg.Banks - 1),
		openRow:   make([]uint64, cfg.Banks),
	}
	for i := range d.openRow {
		d.openRow[i] = noOpenRow
	}
	return d
}

// bankRow splits an address into its bank index and row id. Banks
// interleave at row granularity, so sequential rows spread across banks.
func (d *DRAM) bankRow(addr uint64) (int, uint64) {
	r := addr >> d.rowShift
	return int(r & d.bankMask), r >> d.bankShift
}

// Access services one memory request and returns its latency.
func (d *DRAM) Access(addr uint64) uint64 {
	d.Accesses++
	bank, row := d.bankRow(addr)
	if d.openRow[bank] == row {
		d.RowHits++
		return d.cfg.RowHitLatency
	}
	d.openRow[bank] = row
	return d.cfg.RowMissLatency
}

// Touch updates row state without returning a latency — used for posted
// writes (LLC writebacks) that do not stall the requesting core.
func (d *DRAM) Touch(addr uint64) {
	d.Access(addr)
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(d.Accesses)
}
