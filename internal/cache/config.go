// Package cache implements a set-associative cache model with pluggable
// replacement policies. It models tags, per-line metadata and replacement
// state but not data contents; the simulator only needs hit/miss behaviour
// and eviction traffic.
//
// The policy surface is deliberately wide: policies own the logical
// organization of each set (LRU stacks, RRPV counters, FIFO regions, way
// quotas, ...) in per-set state of their own, indexed by Set.Index, while
// the cache owns the physical lines and the bookkeeping that is common to
// every policy (lookup, install, dirty tracking, statistics).
package cache

import "fmt"

// MaxWays is the widest associativity the model supports: every LLC the
// simulator builds is 16-way, and policies keep fixed-size per-set state
// (WayList, recency stamps, per-core counts) of MaxWays entries. Config,
// core.New and the MRC profile reject anything wider.
const MaxWays = 16

// Config describes a cache's geometry and identity.
type Config struct {
	// Name appears in statistics output ("L1D-0", "LLC", ...).
	Name string
	// SizeBytes is the total capacity. Must be Ways*LineBytes*power-of-two.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size; must be a power of two.
	LineBytes int
	// Cores is the number of cores whose accesses reach this cache;
	// used to size per-core statistics. Zero means 1.
	Cores int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Ways > MaxWays {
		return fmt.Errorf("cache %q: associativity %d exceeds the supported %d ways", c.Name, c.Ways, MaxWays)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line (%d*%d)",
			c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.Sets()
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}
