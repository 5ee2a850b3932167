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

// UCPOption customizes a UCP policy.
type UCPOption func(*UCP)

// WithUCPEpoch sets the repartitioning period in LLC accesses.
func WithUCPEpoch(accesses uint64) UCPOption {
	return func(u *UCP) { u.epochAccesses = accesses }
}

// NewUCP returns a UCP policy for the given core count and associativity.
func NewUCP(cores, ways int, opts ...UCPOption) *UCP {
	u := &UCP{partitioner: newPartitioner("UCP", cores, ways)}
	for _, o := range opts {
		o(u)
	}
	return u
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

// quotaVictim picks the way a full set gives up to core's miss.
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
		// No over-quota owner (stale quotas): LRU among other cores.
		for i := st.stack.Len() - 1; i >= 0; i-- {
			w := st.stack.At(i)
			if clampCore(int(set.Lines[w].Core), u.cores) != core {
				return w
			}
		}
		return st.stack.Back()
	}
	// At/over quota: replace own LRU line.
	for i := st.stack.Len() - 1; i >= 0; i-- {
		w := st.stack.At(i)
		if clampCore(int(set.Lines[w].Core), u.cores) == core {
			return w
		}
	}
	return st.stack.Back()
}

// OnInsert implements cache.Policy.
func (u *UCP) OnInsert(set *cache.Set, way int, req *cache.Request) {
	st := &u.sets[set.Index()]
	st.owned[clampCore(req.Core, u.cores)]++
	st.stack.Remove(way)
	st.stack.PushFront(way)
}
