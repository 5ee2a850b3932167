package policy

import "nucache/internal/cache"

// LRU is least-recently-used replacement: hits move lines to the MRU end
// of a per-set recency order; the victim is the LRU end. This is the
// baseline policy in the NUcache evaluation.
type LRU struct {
	slab []stamps // block-allocated set states (see NewSetState)
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements cache.Policy.
func (*LRU) Name() string { return "LRU" }

// stamps is the recency order LRU, StaticPart and TADIP share, kept as
// per-way last-use stamps from a per-set monotonic tick rather than an
// explicit stack: stamps are unique, so the minimum-stamp way is exactly
// the stack's back, and a touch is one store instead of a list splice.
// Never-touched ways keep stamp 0 and lose every comparison.
type stamps struct {
	last [16]uint64 // last-use stamp per way; 0 = never filled
	tick uint64
}

// touch makes way the most recently used.
func (s *stamps) touch(way int) {
	s.tick++
	s.last[way] = s.tick
}

// oldest returns the least recently used way in [lo, hi).
func (s *stamps) oldest(lo, hi int) int {
	way, min := lo, s.last[lo]
	for w := lo + 1; w < hi; w++ {
		if s.last[w] < min {
			way, min = w, s.last[w]
		}
	}
	return way
}

// lruSlabBlock sizes the state allocation blocks: an LLC-sized cache
// asks for ~1k set states, and handing out slots from fixed-capacity
// blocks turns those into a handful of allocations (states never move:
// a full block is abandoned, not grown).
const lruSlabBlock = 256

// NewSetState implements cache.Policy.
func (l *LRU) NewSetState(int) cache.SetState {
	if len(l.slab) == cap(l.slab) {
		l.slab = make([]stamps, 0, lruSlabBlock)
	}
	l.slab = l.slab[:len(l.slab)+1]
	return &l.slab[len(l.slab)-1]
}

// OnHit implements cache.Policy.
func (*LRU) OnHit(set *cache.Set, way int, _ *cache.Request) {
	set.State.(*stamps).touch(way)
}

// Victim implements cache.Policy.
func (*LRU) Victim(set *cache.Set, _ *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	return set.State.(*stamps).oldest(0, len(set.Lines))
}

// OnInsert implements cache.Policy.
func (*LRU) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	set.State.(*stamps).touch(way)
}
