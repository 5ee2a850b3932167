package cpu

import (
	"math/bits"

	"nucache/internal/cache"
)

// privHier is one core's private hierarchy: an L1 and an optional L2,
// both LRU. The private levels do not depend on the LLC policy, so the
// direct engine (System) and the tape recorder step the same model, and
// replay needs none.
type privHier struct {
	l1    *privCache
	l2    *privCache // nil when the private L2 is disabled
	l1Lat uint64
	l2Lat uint64
}

func newPrivHier(cfg Config) privHier {
	checkLine("L1", cfg.L1)
	h := privHier{l1: newPrivCache(cfg.L1), l1Lat: cfg.L1Latency, l2Lat: cfg.L2Latency}
	if cfg.L2.SizeBytes > 0 {
		checkLine("L2", cfg.L2)
		h.l2 = newPrivCache(cfg.L2)
	}
	return h
}

// access runs one demand access through the private levels. It returns
// the private-level latency, the result of the deepest level reached
// (whose dirty victim the LLC must absorb) and whether the access
// missed every private level and so goes to the LLC. With an L2, a
// dirty L1 victim drains into the L2 (posted) after the demand access;
// the drain's own L2 victim is dropped.
func (h *privHier) access(addr, pc uint64, store bool) (cycles uint64, deepest privResult, miss bool) {
	r := h.l1.access(addr, pc, store)
	if r.hit {
		return h.l1Lat, r, false
	}
	if h.l2 == nil {
		return h.l1Lat, r, true
	}
	r2 := h.l2.access(addr, pc, store)
	if r.evValid && r.evDirty {
		h.l2.access(r.evTag<<lineShift, r.evPC, true)
	}
	return h.l1Lat + h.l2Lat, r2, !r2.hit
}

// privCache is the model of one private cache level: a set-associative
// LRU cache with the semantics of cache.Cache under an LRU policy, but
// with the generic machinery (request structs, policy interface calls,
// per-core counters, observer hooks) compiled away. Every simulated
// access runs through it, so its constant factor bounds how fast the
// direct engine runs and how fast tapes can be cut.
//
// Equivalence contract with cache.Cache + policy.NewLRU() (pinned per
// access by TestPrivHierMatchesCache):
//   - lookup scans ways in index order and takes the first valid tag
//     match;
//   - a store hit marks the line dirty;
//   - the fill victim is the lowest-numbered invalid way, else the way
//     with the oldest use stamp (stamps are per-access monotonic, so a
//     process-wide counter orders them identically to a per-set one);
//   - a filled line records the demand PC and is dirty iff the demand
//     was a store;
//   - hit/miss counts match cache.Stats.Hits/Misses.
type privCache struct {
	ways       int
	offsetBits uint
	indexMask  uint64

	tags  []uint64 // sets*ways, indexed set*ways+way
	pcs   []uint64 // fill PC per line
	stamp []uint64 // last-use tick per line
	valid []uint64 // per-set bitmask of valid ways
	dirty []uint64 // per-set bitmask of dirty ways
	tick  uint64

	hits, misses uint64
}

// privResult is the outcome of one access: hit or fill, plus the victim
// line's identity when a valid line was displaced.
type privResult struct {
	hit     bool
	evValid bool
	evDirty bool
	evTag   uint64
	evPC    uint64
}

// newPrivCache panics on invalid geometry, like cache.New (a machine
// setup programming error).
func newPrivCache(cfg cache.Config) *privCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &privCache{
		ways:       cfg.Ways,
		offsetBits: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		indexMask:  uint64(sets - 1),
		tags:       make([]uint64, sets*cfg.Ways),
		pcs:        make([]uint64, sets*cfg.Ways),
		stamp:      make([]uint64, sets*cfg.Ways),
		valid:      make([]uint64, sets),
		dirty:      make([]uint64, sets),
	}
}

func (p *privCache) access(addr, pc uint64, store bool) privResult {
	set := int((addr >> p.offsetBits) & p.indexMask)
	tag := addr >> p.offsetBits
	base := set * p.ways
	mask := p.valid[set]
	p.tick++

	for i, t := range p.tags[base : base+p.ways] {
		if t == tag && mask&(1<<uint(i)) != 0 {
			p.hits++
			if store {
				p.dirty[set] |= 1 << uint(i)
			}
			p.stamp[base+i] = p.tick
			return privResult{hit: true}
		}
	}
	p.misses++

	var way int
	if free := ^mask & (uint64(1)<<uint(p.ways) - 1); free != 0 {
		way = bits.TrailingZeros64(free)
	} else {
		min := p.stamp[base]
		for i := 1; i < p.ways; i++ {
			if s := p.stamp[base+i]; s < min {
				way, min = i, s
			}
		}
	}

	res := privResult{}
	wb := uint64(1) << uint(way)
	if mask&wb != 0 {
		res.evValid = true
		res.evDirty = p.dirty[set]&wb != 0
		res.evTag = p.tags[base+way]
		res.evPC = p.pcs[base+way]
	}
	p.tags[base+way] = tag
	p.pcs[base+way] = pc
	p.stamp[base+way] = p.tick
	p.valid[set] |= wb
	if store {
		p.dirty[set] |= wb
	} else {
		p.dirty[set] &^= wb
	}
	return res
}
