package policy

import "nucache/internal/cache"

// LRU is least-recently-used replacement: hits move lines to the MRU end
// of a per-set recency order; the victim is the LRU end. This is the
// baseline policy in the NUcache evaluation.
type LRU struct {
	sets []cache.WayList // per set, every valid way, front = MRU
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements cache.Policy.
func (*LRU) Name() string { return "LRU" }

// Init implements cache.Policy.
func (l *LRU) Init(sets int) { l.sets = make([]cache.WayList, sets) }

// OnHit implements cache.Policy.
func (l *LRU) OnHit(set *cache.Set, way int, _ *cache.Request) {
	l.sets[set.Index()].MoveToFront(way)
}

// Victim implements cache.Policy.
func (l *LRU) Victim(set *cache.Set, _ *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	return l.sets[set.Index()].Back()
}

// OnInsert implements cache.Policy. The list holds every valid way, so
// a full list means Victim gave up its back.
func (l *LRU) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	st := &l.sets[set.Index()]
	if st.Len() == len(set.Lines) {
		st.PopBack()
	}
	st.PushFront(way)
}
