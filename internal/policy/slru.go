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
	sets      []slruState
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
	prob cache.WayList // front = MRU
	prot cache.WayList // front = MRU
}

// Init implements cache.Policy.
func (p *SLRU) Init(sets int) { p.sets = make([]slruState, sets) }

// OnHit implements cache.Policy.
func (p *SLRU) OnHit(set *cache.Set, way int, _ *cache.Request) {
	st := &p.sets[set.Index()]
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
func (p *SLRU) Victim(set *cache.Set, _ *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	st := &p.sets[set.Index()]
	if st.prob.Len() > 0 {
		return st.prob.Back()
	}
	// Everything is protected (tiny sets): fall back to protected LRU.
	return st.prot.Back()
}

// OnInsert implements cache.Policy.
func (p *SLRU) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	st := &p.sets[set.Index()]
	st.prob.Remove(way)
	st.prot.Remove(way)
	st.prob.PushFront(way)
}
