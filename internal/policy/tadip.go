package policy

import (
	"nucache/internal/cache"
	"nucache/internal/stats"
)

// TADIP is the thread-aware dynamic insertion policy (Jaleel et al.,
// PACT 2008). Replacement is LRU; the insertion position per thread duels
// between MRU-insertion (plain LRU) and bimodal LRU-insertion (BIP): each
// thread owns a pair of leader-set groups and a PSEL counter, and follower
// sets apply each thread's current winner to that thread's fills. With a
// single thread this is exactly DIP (Qureshi et al., ISCA 2007).
type TADIP struct {
	threads int
	rng     *stats.RNG
	psels   []psel
}

// NewTADIP returns a TADIP policy for the given thread (core) count.
func NewTADIP(threads int, seed uint64) *TADIP {
	if threads <= 0 {
		threads = 1
	}
	if 2*threads > constituencySize {
		// Leader pairs would not fit in a constituency; the largest
		// supported configuration (16 threads) still fits.
		panic("policy: TADIP supports at most constituencySize/2 threads")
	}
	p := &TADIP{threads: threads, rng: stats.NewRNG(seed)}
	p.psels = make([]psel, threads)
	for i := range p.psels {
		p.psels[i] = newPSEL()
	}
	return p
}

// NewDIP returns the single-threaded dynamic insertion policy.
func NewDIP(seed uint64) *TADIP { return NewTADIP(1, seed) }

// Name implements cache.Policy.
func (p *TADIP) Name() string {
	if p.threads == 1 {
		return "DIP"
	}
	return "TADIP"
}

// tadipTickBase splits the stamp space: MRU touches count up from it,
// LRU (BIP) insertions count down from it. Both move at most once per
// LLC access, so neither side can cross into the other within a run.
const tadipTickBase = 1 << 40

// tadipState is the set's stamp recency plus the BIP stamp: a BIP
// insertion "at the LRU end" takes a stamp below every live one, and
// successive BIP insertions take decreasing stamps, preserving the stack
// order where the most recent LRU-insert is evicted first.
type tadipState struct {
	stamps          // MRU touches count up from tadipTickBase
	low    uint64   // last LRU stamp handed out (counts down)
	owner  int      // thread whose duel this set participates in (-1: none)
	role   duelRole // leaderA = LRU-insertion leader, leaderB = BIP leader
}

// NewSetState implements cache.Policy.
func (p *TADIP) NewSetState(setIndex int) cache.SetState {
	st := &tadipState{low: tadipTickBase, owner: -1}
	st.tick = tadipTickBase
	if owner := setIndex % constituencySize / 2; owner < p.threads {
		st.owner, st.role = owner, duelRoleOf(setIndex, owner)
	}
	return st
}

// OnHit implements cache.Policy.
func (*TADIP) OnHit(set *cache.Set, way int, _ *cache.Request) {
	set.State.(*tadipState).touch(way)
}

// Victim implements cache.Policy.
func (p *TADIP) Victim(set *cache.Set, req *cache.Request) int {
	st := set.State.(*tadipState)
	// A miss by the owning thread in its leader sets trains its PSEL.
	if st.owner >= 0 && st.owner == clampCore(req.Core, p.threads) {
		switch st.role {
		case leaderA:
			p.psels[st.owner].missInA()
		case leaderB:
			p.psels[st.owner].missInB()
		}
	}
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	return st.oldest(0, len(set.Lines))
}

// OnInsert implements cache.Policy.
func (p *TADIP) OnInsert(set *cache.Set, way int, req *cache.Request) {
	st := set.State.(*tadipState)
	thread := clampCore(req.Core, p.threads)
	useBIP := false
	if st.owner == thread {
		useBIP = st.role == leaderB
	} else {
		useBIP = p.psels[thread].useB()
	}
	if useBIP && !p.rng.Bool(brripEpsilon) {
		st.low-- // LRU insertion: next victim unless reused
		st.last[way] = st.low
	} else {
		st.touch(way)
	}
}
