package policy

import "nucache/internal/cache"

// SLRU is segmented LRU: each set is split into a probationary and a
// protected segment. Fills enter the probationary segment; a hit promotes
// the line into the protected segment (possibly demoting that segment's
// LRU line back to probation). Victims always come from the probationary
// LRU end, so lines must prove re-use before earning long residency —
// a classic scan-resistant design and a useful structural cousin of
// NUcache's two-region set (with the regions' roles inverted: NUcache
// rewards *after* eviction, SLRU rewards *before*).
type SLRU struct {
	protected int // ways reserved for proven lines
}

// NewSLRU returns an SLRU policy protecting the given number of ways per
// set (clamped to at least 1 probationary way at attach time).
func NewSLRU(protectedWays int) *SLRU {
	if protectedWays < 1 {
		panic("policy: SLRU needs at least one protected way")
	}
	return &SLRU{protected: protectedWays}
}

// Name implements cache.Policy.
func (*SLRU) Name() string { return "SLRU" }

type slruState struct {
	prob *cache.WayList // front = MRU
	prot *cache.WayList // front = MRU
}

// NewSetState implements cache.Policy.
func (*SLRU) NewSetState(int) cache.SetState {
	return &slruState{prob: cache.NewWayList(16), prot: cache.NewWayList(16)}
}

// OnHit implements cache.Policy.
func (p *SLRU) OnHit(set *cache.Set, way int, _ *cache.Request) {
	st := set.State.(*slruState)
	if st.prot.Contains(way) {
		st.prot.MoveToFront(way)
		return
	}
	st.prob.Remove(way)
	st.prot.PushFront(way)
	maxProt := p.protected
	if maxProt >= len(set.Lines) {
		maxProt = len(set.Lines) - 1
	}
	if st.prot.Len() > maxProt {
		demoted := st.prot.PopBack()
		st.prob.PushFront(demoted)
	}
}

// Victim implements cache.Policy: probationary LRU first.
func (*SLRU) Victim(set *cache.Set, _ *cache.Request) int {
	st := set.State.(*slruState)
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	if st.prob.Len() > 0 {
		return st.prob.Back()
	}
	// Everything is protected (tiny sets): fall back to protected LRU.
	return st.prot.Back()
}

// OnInsert implements cache.Policy.
func (*SLRU) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	st := set.State.(*slruState)
	st.prob.Remove(way)
	st.prot.Remove(way)
	st.prob.PushFront(way)
}
