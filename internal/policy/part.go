package policy

import (
	"fmt"

	"nucache/internal/cache"
)

// StaticPart is a fixed way-partitioned LLC: core i owns a contiguous,
// immutable range of alloc[i] ways in every set, managed LRU within the
// range. Because the cores' address spaces are disjoint (per-core tag
// bits), each core's partition behaves exactly like a private
// alloc[i]-way LRU cache over the same sets — which is what makes the
// MRC advisor's prediction for this policy exact: the profiler's
// full-associativity ATD hit curve at stack positions < alloc[i] is,
// by stack inclusion, precisely the hit count this policy delivers.
type StaticPart struct {
	alloc []int
	start []int
	sets  []stamps
}

// EvenSplit returns the canonical even allocation of ways among cores
// (remainder ways go to the lowest-numbered cores).
func EvenSplit(cores, ways int) []int {
	alloc := make([]int, cores)
	for i := range alloc {
		alloc[i] = ways / cores
	}
	for i := 0; i < ways%cores; i++ {
		alloc[i]++
	}
	return alloc
}

// CheckSplit is the one rule for a static partition of a ways-way LLC
// among cores: one entry per core, at least one way each, and entries
// that sum to ways. Requests and the MRC advisor both apply it.
func CheckSplit(alloc []int, cores, ways int) error {
	if len(alloc) != cores {
		return fmt.Errorf("alloc has %d entries for %d cores", len(alloc), cores)
	}
	total := 0
	for i, a := range alloc {
		if a < 1 {
			return fmt.Errorf("alloc grants core %d %d ways", i, a)
		}
		total += a
	}
	if total != ways {
		return fmt.Errorf("alloc sums to %d ways, cache has %d", total, ways)
	}
	return nil
}

// NewStaticPart returns a static partition policy. Every core must get
// at least one way, and the partitions cover at most cache.MaxWays ways.
func NewStaticPart(alloc []int) *StaticPart {
	if len(alloc) == 0 {
		panic("policy: StaticPart with no cores")
	}
	p := &StaticPart{
		alloc: append([]int(nil), alloc...),
		start: make([]int, len(alloc)),
	}
	ways := 0
	for i, a := range alloc {
		if a < 1 {
			panic(fmt.Sprintf("policy: StaticPart core %d allocated %d ways", i, a))
		}
		p.start[i] = ways
		ways += a
	}
	if ways > cache.MaxWays {
		panic(fmt.Sprintf("policy: StaticPart over %d ways", ways))
	}
	return p
}

// Name implements cache.Policy.
func (*StaticPart) Name() string { return "Part" }

// Init implements cache.Policy. Never-filled ways keep stamp 0, so
// Victim fills them first without a validity scan.
func (p *StaticPart) Init(sets int) { p.sets = make([]stamps, sets) }

// OnHit implements cache.Policy.
func (p *StaticPart) OnHit(set *cache.Set, way int, _ *cache.Request) {
	p.sets[set.Index()].touch(way)
}

// Victim implements cache.Policy: LRU within the issuing core's range.
func (p *StaticPart) Victim(set *cache.Set, req *cache.Request) int {
	core := clampCore(req.Core, len(p.alloc))
	return p.sets[set.Index()].oldest(p.start[core], p.start[core]+p.alloc[core])
}

// OnInsert implements cache.Policy.
func (p *StaticPart) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	p.sets[set.Index()].touch(way)
}
