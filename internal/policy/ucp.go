package policy

import "nucache/internal/cache"

// UCP is utility-based cache partitioning (Qureshi & Patt, MICRO 2006):
// per-core UMONs measure each core's utility curve; every epoch the
// lookahead algorithm re-divides the ways; replacement enforces the
// per-core way quotas within each set on top of LRU ordering.
type UCP struct {
	partitioner
	sets []ucpState
}

// NewUCP returns a UCP policy for the given core count and associativity.
func NewUCP(cores, ways int) *UCP {
	return &UCP{partitioner: newPartitioner("UCP", cores, ways)}
}

// Name implements cache.Policy.
func (*UCP) Name() string { return "UCP" }

type ucpState struct {
	stack cache.WayList
	// owned counts the set's valid lines per (clamped) owner core: each
	// fill adds one for its core, and Victim removes one for the owner of
	// a valid line it evicts. Victim's quota check thus does not rescan
	// the set's lines on every miss. MaxWays entries cover every core:
	// the partitioner (and BuildPolicy's width check) keeps cores <= ways,
	// and the cache keeps ways <= MaxWays.
	owned [cache.MaxWays]uint8
}

// Init implements cache.Policy.
func (u *UCP) Init(sets int) { u.sets = make([]ucpState, sets) }

// ObserveAccess implements cache.AccessObserver: it feeds the issuing
// core's UMON and advances the repartitioning epoch.
func (u *UCP) ObserveAccess(setIndex int, tag uint64, req *cache.Request) {
	if u.observe(setIndex, tag, clampCore(req.Core, u.cores)) {
		u.repartition()
	}
}

// OnHit implements cache.Policy.
func (u *UCP) OnHit(set *cache.Set, way int, _ *cache.Request) {
	u.sets[set.Index()].stack.MoveToFront(way)
}

// Victim implements cache.Policy: quota-aware LRU. With no invalid way
// the chosen line leaves the cache, so its owner's count drops.
func (u *UCP) Victim(set *cache.Set, req *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	st := &u.sets[set.Index()]
	w := u.quotaVictim(set, st, clampCore(req.Core, u.cores))
	st.owned[clampCore(int(set.Lines[w].Core), u.cores)]--
	return w
}

// quotaVictim picks the way a full set gives up to core's miss. In a
// full set the owner counts sum to the ways, and so do the quotas
// (EvenSplit and LookaheadPartition hand out every way, at least one
// per core). A core under quota therefore leaves some other core over
// quota, and a core at or over quota owns at least one line: one of the
// two scans always finds its victim.
func (u *UCP) quotaVictim(set *cache.Set, st *ucpState, core int) int {
	owned := &st.owned
	if int(owned[core]) < u.alloc[core] {
		// Under quota: take the LRU line of any over-quota core.
		for i := st.stack.Len() - 1; i >= 0; i-- {
			w := st.stack.At(i)
			oc := clampCore(int(set.Lines[w].Core), u.cores)
			if oc != core && int(owned[oc]) > u.alloc[oc] {
				return w
			}
		}
		panic("policy: UCP core under quota in a full set with no other core over quota")
	}
	// At/over quota: replace own LRU line.
	for i := st.stack.Len() - 1; i >= 0; i-- {
		w := st.stack.At(i)
		if clampCore(int(set.Lines[w].Core), u.cores) == core {
			return w
		}
	}
	panic("policy: UCP core at quota owns no line in a full set")
}

// OnInsert implements cache.Policy.
func (u *UCP) OnInsert(set *cache.Set, way int, req *cache.Request) {
	st := &u.sets[set.Index()]
	st.owned[clampCore(req.Core, u.cores)]++
	st.stack.Remove(way)
	st.stack.PushFront(way)
}
