package policy

import (
	"nucache/internal/cache"
	"nucache/internal/stats"
)

// PIPP is promotion/insertion pseudo-partitioning (Xie & Loh, ISCA 2009).
// Per-core UMONs compute a target partition π with UCP's lookahead; the
// partition is enforced implicitly: core i inserts new lines at priority
// position π_i from the bottom of the set's priority list, and hits
// promote a line by a single position with probability pProm. Streaming
// cores (almost no reuse in their monitor) are demoted to bottom insertion
// with a tiny promotion probability so they cannot pollute the cache.
type PIPP struct {
	partitioner
	rng  *stats.RNG
	strm []bool
	prio []cache.WayList // per set: front = highest priority, back = victim
}

// PIPP's promotion probabilities: pProm for a hit by an ordinary core,
// pPromStream for a hit by a core flagged as streaming.
const (
	pProm       = 3.0 / 4
	pPromStream = 1.0 / 128
)

// NewPIPP returns a PIPP policy for the given core count and associativity.
func NewPIPP(cores, ways int, seed uint64) *PIPP {
	return &PIPP{
		partitioner: newPartitioner("PIPP", cores, ways),
		rng:         stats.NewRNG(seed),
		strm:        make([]bool, cores),
	}
}

// Name implements cache.Policy.
func (*PIPP) Name() string { return "PIPP" }

// Init implements cache.Policy.
func (p *PIPP) Init(sets int) { p.prio = make([]cache.WayList, sets) }

// ObserveAccess implements cache.AccessObserver.
func (p *PIPP) ObserveAccess(setIndex int, tag uint64, req *cache.Request) {
	if !p.observe(setIndex, tag, clampCore(req.Core, p.cores)) {
		return
	}
	for i, u := range p.umons {
		// Streaming detection: essentially no reuse at any stack
		// position despite plenty of traffic.
		acc := u.Accesses()
		p.strm[i] = acc > 1000 && float64(u.Utility(p.ways)) < float64(acc)/64
	}
	p.repartition()
}

// OnHit implements cache.Policy: single-step probabilistic promotion.
func (p *PIPP) OnHit(set *cache.Set, way int, req *cache.Request) {
	prob := pProm
	if p.strm[clampCore(req.Core, p.cores)] {
		prob = pPromStream
	}
	if p.rng.Bool(prob) {
		p.prio[set.Index()].MoveUp(way)
	}
}

// Victim implements cache.Policy: lowest priority position.
func (p *PIPP) Victim(set *cache.Set, _ *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	return p.prio[set.Index()].Back()
}

// OnInsert implements cache.Policy: insert at π_core from the bottom.
func (p *PIPP) OnInsert(set *cache.Set, way int, req *cache.Request) {
	prio := &p.prio[set.Index()]
	prio.Remove(way)
	core := clampCore(req.Core, p.cores)
	pi := p.alloc[core]
	if p.strm[core] {
		pi = 1
	}
	// Position pi from the bottom; pi=1 means bottom (immediate victim
	// candidate), larger allocations insert higher.
	pos := prio.Len() + 1 - pi
	prio.InsertAt(pos, way)
}
