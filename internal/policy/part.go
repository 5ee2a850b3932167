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
	owner [cache.MaxWays]uint8 // the core whose range holds each way
	// lists holds each (set, core) range's valid ways, front = MRU, at
	// set*len(alloc)+core: one slice for the whole cache.
	lists []cache.WayList
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
		if ways+a > cache.MaxWays {
			panic(fmt.Sprintf("policy: StaticPart over %d ways", cache.MaxWays))
		}
		p.start[i] = ways
		for ; a > 0; a-- {
			p.owner[ways] = uint8(i)
			ways++
		}
	}
	return p
}

// Name implements cache.Policy.
func (*StaticPart) Name() string { return "Part" }

// Init implements cache.Policy.
func (p *StaticPart) Init(sets int) { p.lists = make([]cache.WayList, sets*len(p.alloc)) }

// OnHit implements cache.Policy.
func (p *StaticPart) OnHit(set *cache.Set, way int, _ *cache.Request) {
	p.lists[set.Index()*len(p.alloc)+int(p.owner[way])].MoveToFront(way)
}

// Victim implements cache.Policy: LRU within the issuing core's range.
// No line is ever invalidated, so a range fills in way order: while it
// is filling, the next way after its valid ones is free.
func (p *StaticPart) Victim(set *cache.Set, req *cache.Request) int {
	core := clampCore(req.Core, len(p.alloc))
	l := &p.lists[set.Index()*len(p.alloc)+core]
	if l.Len() < p.alloc[core] {
		return p.start[core] + l.Len()
	}
	return l.Back()
}

// OnInsert implements cache.Policy. A full range's victim was its back.
func (p *StaticPart) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	core := int(p.owner[way])
	l := &p.lists[set.Index()*len(p.alloc)+core]
	if l.Len() == p.alloc[core] {
		l.PopBack()
	}
	l.PushFront(way)
}
