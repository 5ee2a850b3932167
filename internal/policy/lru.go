package policy

import "nucache/internal/cache"

// LRU is least-recently-used replacement: hits move lines to the MRU end
// of a per-set recency order; the victim is the LRU end. This is the
// baseline policy in the NUcache evaluation.
type LRU struct {
	sets []stamps
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
	last [cache.MaxWays]uint64 // last-use stamp per way; 0 = never filled
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

// Init implements cache.Policy.
func (l *LRU) Init(sets int) { l.sets = make([]stamps, sets) }

// OnHit implements cache.Policy.
func (l *LRU) OnHit(set *cache.Set, way int, _ *cache.Request) {
	l.sets[set.Index()].touch(way)
}

// Victim implements cache.Policy.
func (l *LRU) Victim(set *cache.Set, _ *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	return l.sets[set.Index()].oldest(0, len(set.Lines))
}

// OnInsert implements cache.Policy.
func (l *LRU) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	l.sets[set.Index()].touch(way)
}
