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

// NewStaticPart returns a static partition policy. Every core must get
// at least one way, and the partitions cover at most 16 ways.
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
	if ways > len(stamps{}.last) {
		panic(fmt.Sprintf("policy: StaticPart over %d ways", ways))
	}
	return p
}

// Name implements cache.Policy.
func (*StaticPart) Name() string { return "Part" }

// Allocations returns the per-core way quotas.
func (p *StaticPart) Allocations() []int {
	return append([]int(nil), p.alloc...)
}

// NewSetState implements cache.Policy. Never-filled ways keep stamp 0,
// so Victim fills them first without a validity scan.
func (*StaticPart) NewSetState(int) cache.SetState { return &stamps{} }

// OnHit implements cache.Policy.
func (*StaticPart) OnHit(set *cache.Set, way int, _ *cache.Request) {
	set.State.(*stamps).touch(way)
}

// Victim implements cache.Policy: LRU within the issuing core's range.
func (p *StaticPart) Victim(set *cache.Set, req *cache.Request) int {
	core := clampCore(req.Core, len(p.alloc))
	return set.State.(*stamps).oldest(p.start[core], p.start[core]+p.alloc[core])
}

// OnInsert implements cache.Policy.
func (*StaticPart) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	set.State.(*stamps).touch(way)
}
