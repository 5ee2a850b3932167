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
	sets    []tadipState
}

// NewTADIP returns a TADIP policy for the given thread (core) count.
func NewTADIP(threads int, seed uint64) *TADIP {
	if threads < 1 || 2*threads > constituencySize {
		// Leader pairs would not fit in a constituency; the largest
		// supported configuration (16 threads) still fits.
		panic("policy: TADIP supports 1 to constituencySize/2 threads")
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
	stamps        // MRU touches count up from tadipTickBase
	low    uint64 // last LRU stamp handed out (counts down)
}

// Init implements cache.Policy.
func (p *TADIP) Init(sets int) {
	p.sets = make([]tadipState, sets)
	for i := range p.sets {
		p.sets[i].tick = tadipTickBase
		p.sets[i].low = tadipTickBase
	}
}

// duel returns the thread whose duel setIndex leads (-1: none, a
// follower set for every thread) and its role in that duel: leaderA
// is an LRU-insertion leader, leaderB a BIP leader.
func (p *TADIP) duel(setIndex int) (owner int, role duelRole) {
	owner = setIndex % constituencySize / 2
	if owner >= p.threads {
		return -1, follower
	}
	return owner, duelRoleOf(setIndex, owner)
}

// OnHit implements cache.Policy.
func (p *TADIP) OnHit(set *cache.Set, way int, _ *cache.Request) {
	p.sets[set.Index()].touch(way)
}

// Victim implements cache.Policy.
func (p *TADIP) Victim(set *cache.Set, req *cache.Request) int {
	// A miss by the owning thread in its leader sets trains its PSEL.
	if owner, role := p.duel(set.Index()); owner >= 0 && owner == clampCore(req.Core, p.threads) {
		switch role {
		case leaderA:
			p.psels[owner].missInA()
		case leaderB:
			p.psels[owner].missInB()
		}
	}
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	return p.sets[set.Index()].oldest(0, len(set.Lines))
}

// OnInsert implements cache.Policy.
func (p *TADIP) OnInsert(set *cache.Set, way int, req *cache.Request) {
	st := &p.sets[set.Index()]
	thread := clampCore(req.Core, p.threads)
	useBIP := false
	if owner, role := p.duel(set.Index()); owner == thread {
		useBIP = role == leaderB
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
