package policy

import "nucache/internal/cache"

// OracleRetention is an idealized NUcache: the same MainWays/DeliWays set
// organization, but the retention decision uses *perfect* next-use
// knowledge instead of the PC-based proxy. A line evicted from the
// MainWays is retained iff its true next use lies within `window` cache
// accesses. It upper-bounds what any realizable selection mechanism
// (NUcache's included) can get out of a given MainWays/DeliWays split.
//
// Like OPT it needs the cache's access sequence precomputed with
// NextUseChain (record the LLC line stream under any policy first — the
// stream is policy-independent because upper levels filter independently).
type OracleRetention struct {
	mainWays int
	deliWays int
	window   uint64
	nextUse  []uint64
	sets     []oracleState
}

// NewOracleRetention builds the oracle policy for a mainWays+deliWays
// organization. window is the retention horizon in cache accesses.
func NewOracleRetention(mainWays, deliWays int, window uint64, nextUse []uint64) *OracleRetention {
	if mainWays < 1 || deliWays < 0 || mainWays+deliWays > cache.MaxWays {
		panic("policy: OracleRetention needs mainWays >= 1, deliWays >= 0 and at most cache.MaxWays ways")
	}
	return &OracleRetention{
		mainWays: mainWays,
		deliWays: deliWays,
		window:   window,
		nextUse:  nextUse,
	}
}

// Name implements cache.Policy.
func (*OracleRetention) Name() string { return "OracleNU" }

type oracleState struct {
	main cache.WayList // front = MRU
	deli cache.WayList // front = oldest
}

// Init implements cache.Policy.
func (o *OracleRetention) Init(sets int) { o.sets = make([]oracleState, sets) }

func (o *OracleRetention) futureOf(seq uint64) uint64 {
	if seq < uint64(len(o.nextUse)) {
		return o.nextUse[seq]
	}
	return NeverUsed
}

// OnHit implements cache.Policy.
func (o *OracleRetention) OnHit(set *cache.Set, way int, req *cache.Request) {
	set.Lines[way].Meta = o.futureOf(req.Seq)
	st := &o.sets[set.Index()]
	if st.main.Contains(way) {
		st.main.MoveToFront(way)
		return
	}
	// Every valid way is in exactly one list, so a hit outside the
	// MainWays is a DeliWay hit: promote; the MainWays LRU line takes the
	// slot only if it is itself worth retaining (mirrors NUcache's
	// chosen-only swap).
	idx := st.deli.IndexOf(way)
	if st.main.Len() < o.mainWays {
		st.deli.RemoveAt(idx)
		st.main.PushFront(way)
		return
	}
	lru := st.main.Back()
	if !o.retain(set.Lines[lru].Meta, req.Seq) {
		return
	}
	st.main.PopBack()
	st.deli.RemoveAt(idx)
	st.deli.InsertAt(idx, lru)
	st.main.PushFront(way)
}

// retain reports whether a line with the given next-use seq is worth
// holding at current time seq.
func (o *OracleRetention) retain(next, seq uint64) bool {
	return next != NeverUsed && next-seq <= o.window
}

// Victim implements cache.Policy (same demote-loop structure as NUcache).
func (o *OracleRetention) Victim(set *cache.Set, req *cache.Request) int {
	st := &o.sets[set.Index()]
	if st.main.Len() < o.mainWays {
		if inv := set.FindInvalid(); inv >= 0 {
			return inv
		}
	}
	for st.main.Len() > 0 {
		w := st.main.PopBack()
		if o.deliWays > 0 && o.retain(set.Lines[w].Meta, req.Seq) {
			st.deli.PushBack(w)
			if st.deli.Len() > o.deliWays {
				return st.deli.PopFront()
			}
			if inv := set.FindInvalid(); inv >= 0 {
				return inv
			}
			continue
		}
		return w
	}
	// Unreachable, as in NUcache.Victim: with no invalidation every
	// valid way is in one list and the FIFO holds at most deliWays of
	// them, fewer than the set's ways, so a MainWays line always remains.
	panic("policy: OracleRetention set has no MainWays line to evict")
}

// OnInsert implements cache.Policy.
func (o *OracleRetention) OnInsert(set *cache.Set, way int, req *cache.Request) {
	set.Lines[way].Meta = o.futureOf(req.Seq)
	st := &o.sets[set.Index()]
	st.main.Remove(way)
	st.deli.Remove(way)
	st.main.PushFront(way)
}
