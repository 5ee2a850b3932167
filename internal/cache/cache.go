package cache

import (
	"fmt"
	"math/bits"

	"nucache/internal/trace"
)

// Policy is a replacement policy plugged into a Cache.
//
// The cache calls exactly one of OnHit or (Victim, OnInsert) per access.
// Policies own per-set logical state (allocated by NewSetState) and may
// reorganize it freely inside Victim — e.g. NUcache logically moves a
// MainWays victim into the DeliWays region before returning the way whose
// previous occupant actually leaves the cache.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// NewSetState allocates per-set state; nil is allowed.
	NewSetState(setIndex int) SetState
	// OnHit is invoked when req hits in way.
	OnHit(set *Set, way int, req *Request)
	// Victim returns the way in [0, ways) to fill for the missing req;
	// the cache panics, naming the policy, on any other value. If the
	// returned way holds a valid line, that line is evicted by the cache.
	Victim(set *Set, req *Request) int
	// OnInsert is invoked after the cache installs req's line at way.
	OnInsert(set *Set, way int, req *Request)
}

// AccessObserver is an optional Policy extension invoked for every access
// before lookup; monitoring structures (UCP's UMON, NUcache's Next-Use
// monitor) use it to see the unfiltered request stream.
type AccessObserver interface {
	ObserveAccess(setIndex int, tag uint64, req *Request)
}

// Stats aggregates cache activity. Per-core slices are sized by
// Config.Cores.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64

	CoreAccesses []uint64
	CoreHits     []uint64
	CoreMisses   []uint64
}

// HitRate returns hits/accesses (0 for an idle cache).
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative cache with a pluggable replacement policy.
type Cache struct {
	cfg        Config
	sets       []Set
	policy     Policy
	obs        AccessObserver // non-nil iff policy observes accesses
	offsetBits uint
	indexMask  uint64
	seq        uint64

	// Stats is exported for cheap reading by the harness.
	Stats Stats
}

// New constructs a cache. It panics on invalid configuration, which is a
// programming error in experiment setup, not a runtime condition.
func New(cfg Config, policy Policy) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if policy == nil {
		panic(fmt.Sprintf("cache %q: nil policy", cfg.Name))
	}
	cores := cfg.Cores
	if cores <= 0 {
		cores = 1
	}
	sets := cfg.Sets()
	// The three per-core counter slices, written on every access, share
	// one backing array (capacity-clipped) padded to whole 64-byte lines.
	// Go's allocator places such an object on a line boundary, so no
	// other cache simulated concurrently on another CPU writes the same
	// line. With three separate 16-byte slices, a five-policy grid
	// replayed on two CPUs took 1.4x as long on a 2-vCPU host.
	perCore := make([]uint64, (3*cores+7)&^7)
	c := &Cache{
		cfg:        cfg,
		sets:       make([]Set, sets),
		policy:     policy,
		offsetBits: log2(cfg.LineBytes),
		indexMask:  uint64(sets - 1),
		Stats: Stats{
			CoreAccesses: perCore[:cores:cores],
			CoreHits:     perCore[cores : 2*cores : 2*cores],
			CoreMisses:   perCore[2*cores : 3*cores : 3*cores],
		},
	}
	lines := make([]Line, sets*cfg.Ways)
	tags := make([]uint64, sets*cfg.Ways)
	for i := range c.sets {
		lo, hi := i*cfg.Ways, (i+1)*cfg.Ways
		c.sets[i].Lines = lines[lo:hi:hi]
		c.sets[i].tags = tags[lo:hi:hi]
		c.sets[i].State = policy.NewSetState(i)
	}
	c.obs, _ = policy.(AccessObserver)
	return c
}

// SetIndex maps an address to its set index.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.offsetBits) & c.indexMask)
}

// Tag maps an address to the line address used as tag.
func (c *Cache) Tag(addr uint64) uint64 { return addr >> c.offsetBits }

// Set exposes a set for inspection (tests, monitors).
func (c *Cache) Set(i int) *Set { return &c.sets[i] }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.sets) }

// AccessResult describes the outcome of one access. It keeps to four
// fields and 32 bytes so the compiler returns it in registers.
type AccessResult struct {
	// Hit reports whether the access hit.
	Hit bool
	// evicted holds the evictedValid and evictedDirty bits.
	evicted uint8
	// EvictedTag and EvictedPC are the displaced line's tag and PC when
	// EvictedValid reports one.
	EvictedTag uint64
	EvictedPC  uint64
}

const (
	evictedValid = 1 << iota
	evictedDirty
)

// EvictedValid reports that a miss displaced a valid line.
func (r AccessResult) EvictedValid() bool { return r.evicted&evictedValid != 0 }

// EvictedDirty reports that a miss displaced a valid, dirty line.
func (r AccessResult) EvictedDirty() bool { return r.evicted&evictedDirty != 0 }

// Access presents one request to the cache and returns the outcome.
// The cache assigns req.Seq.
func (c *Cache) Access(req *Request) AccessResult {
	req.Seq = c.seq
	c.seq++

	setIdx := c.SetIndex(req.Addr)
	tag := c.Tag(req.Addr)
	set := &c.sets[setIdx]

	c.Stats.Accesses++
	core := req.Core
	if core < 0 || core >= len(c.Stats.CoreAccesses) {
		core = 0
	}
	c.Stats.CoreAccesses[core]++

	if c.obs != nil {
		c.obs.ObserveAccess(setIdx, tag, req)
	}

	if way := set.Lookup(tag); way >= 0 {
		c.Stats.Hits++
		c.Stats.CoreHits[core]++
		if req.Kind == trace.Store {
			set.Lines[way].Dirty = true
		}
		c.policy.OnHit(set, way, req)
		return AccessResult{Hit: true}
	}

	c.Stats.Misses++
	c.Stats.CoreMisses[core]++

	way := c.policy.Victim(set, req)
	if uint(way) >= uint(len(set.Lines)) {
		panic(fmt.Sprintf("cache %q: policy %q returned way %d of %d",
			c.cfg.Name, c.policy.Name(), way, len(set.Lines)))
	}

	var res AccessResult
	if set.Valid(way) {
		victim := &set.Lines[way]
		res = AccessResult{evicted: evictedValid, EvictedTag: set.tags[way], EvictedPC: victim.PC}
		c.Stats.Evictions++
		if victim.Dirty {
			res.evicted |= evictedDirty
			c.Stats.Writebacks++
		}
	}

	set.Lines[way] = Line{
		PC:    req.PC,
		Core:  int32(req.Core),
		Dirty: req.Kind == trace.Store,
	}
	set.tags[way] = tag
	set.validMask |= 1 << uint(way)
	c.policy.OnInsert(set, way, req)
	return res
}

// Occupancy returns the number of valid lines (for tests and reports).
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.sets {
		n += bits.OnesCount64(c.sets[i].validMask)
	}
	return n
}
