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
	// Victim returns the way to fill for the missing req, or a negative
	// way to bypass the fill entirely. If the returned way holds a valid
	// line, that line is evicted by the cache.
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

// EvictionObserver is an optional Policy extension invoked when a valid
// line leaves the cache (replaced or invalidated).
type EvictionObserver interface {
	ObserveEviction(setIndex int, line Line)
}

// Stats aggregates cache activity. Per-core slices are sized by
// Config.Cores.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Bypasses   uint64

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
	obs        AccessObserver   // non-nil iff policy observes accesses
	evictObs   EvictionObserver // non-nil iff policy observes evictions
	offsetBits uint
	indexMask  uint64
	ways       int // == cfg.Ways, hoisted out of the access path
	seq        uint64

	// tags mirrors the per-line Tag fields in a dense layout for the
	// access-path lookup: scanning 8 bytes per way instead of a full
	// 32-byte Line keeps the whole search inside one or two cache lines.
	// Valid flags are mirrored in each Set's validMask. Only Access and
	// Invalidate mutate either mirror (policies own Meta but never Tag
	// or Valid), so they cannot drift.
	tags []uint64 // sets*ways, indexed set*ways+way

	// ptags is the SWAR prefilter in front of the tags mirror: one
	// 8-bit partial tag per way, eight ways per word, so lookup can
	// compare a whole set (up to 8 ways) in a couple of word ops and
	// confirm only the matching bytes against full tags. Invariant,
	// maintained by the same two mutators as the mirrors above but only
	// while swar is set (narrow caches never read the filter, so they
	// skip the upkeep store per fill): for every way with its validMask
	// bit set, the byte at ptags[set*pwords+way/8], lane way%8, equals
	// uint8(Tag>>pshift); invalid ways hold 0. pshift skips the
	// set-index bits of the tag (constant within a set, so they carry
	// no information) — and because a valid zero partial tag or a
	// cleared byte can still collide with a probe, the filter may
	// produce false-positive candidates but never false negatives; the
	// full-tag + validMask confirmation makes that harmless.
	ptags    []uint64 // sets*pwords, indexed set*pwords+way/8
	pwords   int      // ptag words per set: (ways+7)/8
	pshift   uint     // partial tag = uint8(tag >> pshift)
	fullMask uint64   // validMask value of a fully occupied set
	swar     bool     // probe through the filter (wide caches only)

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
		ways:       cfg.Ways,
		Stats: Stats{
			CoreAccesses: perCore[:cores:cores],
			CoreHits:     perCore[cores : 2*cores : 2*cores],
			CoreMisses:   perCore[2*cores : 3*cores : 3*cores],
		},
	}
	lines := make([]Line, sets*cfg.Ways)
	for i := range c.sets {
		c.sets[i].Lines = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
		c.sets[i].State = policy.NewSetState(i)
	}
	// tags and ptags live in one backing array (tags capacity-clipped so
	// an overrun panics instead of corrupting the filter): cache
	// construction is on replay hot paths, where the bench gate holds
	// allocs/op flat. Narrow caches never probe the filter, so they skip
	// its words entirely.
	c.pwords = (cfg.Ways + 7) / 8
	c.pshift = log2(sets)
	c.swar = cfg.Ways > swarMinWays
	nt := sets * cfg.Ways
	np := 0
	if c.swar {
		np = sets * c.pwords
	}
	backing := make([]uint64, nt+np)
	c.tags = backing[:nt:nt]
	c.ptags = backing[nt:]
	c.fullMask = ^uint64(0) >> (64 - uint(cfg.Ways))
	c.obs, _ = policy.(AccessObserver)
	c.evictObs, _ = policy.(EvictionObserver)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Policy returns the attached replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

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

// AccessResult describes the outcome of one access.
type AccessResult struct {
	// Hit reports whether the access hit.
	Hit bool
	// Evicted holds the displaced line when EvictedValid is true.
	Evicted      Line
	EvictedValid bool
	// Bypassed reports that the policy declined to cache the fill.
	Bypassed bool
}

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

	base := setIdx * c.ways
	// Per-cache dispatch (one predicted branch): narrow caches keep the
	// tiny lookup, which inlines here; wide caches call the SWAR probe,
	// whose word compares dwarf the call.
	var way int
	if c.swar {
		way = c.swarLookup(setIdx, base, set.validMask, tag)
	} else {
		way = c.lookup(base, set.validMask, tag)
	}
	if way >= 0 {
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

	way = c.policy.Victim(set, req)
	if way < 0 {
		c.Stats.Bypasses++
		return AccessResult{Bypassed: true}
	}
	if way >= len(set.Lines) {
		panic(fmt.Sprintf("cache %q: policy %q returned way %d of %d",
			c.cfg.Name, c.policy.Name(), way, len(set.Lines)))
	}

	res := AccessResult{}
	if victim := &set.Lines[way]; victim.Valid {
		res.Evicted = *victim
		res.EvictedValid = true
		c.Stats.Evictions++
		if victim.Dirty {
			c.Stats.Writebacks++
		}
		if c.evictObs != nil {
			c.evictObs.ObserveEviction(setIdx, *victim)
		}
	}

	set.Lines[way] = Line{
		Tag:   tag,
		PC:    req.PC,
		Core:  int32(req.Core),
		Valid: true,
		Dirty: req.Kind == trace.Store,
	}
	c.tags[base+way] = tag
	set.validMask |= 1 << uint(way)
	if c.swar {
		c.setPartial(setIdx, way, uint8(tag>>c.pshift))
	}
	c.policy.OnInsert(set, way, req)
	return res
}

// SWAR byte-broadcast and zero-byte-detect masks (Mycroft's trick):
// for x = word XOR broadcast(b), (x - lsb) &^ x & msb flags the high
// bit of every byte of word equal to b — plus possible false positives
// on bytes adjacent to a true match (borrow propagation), and never a
// false negative. Candidates are confirmed, so extras only cost a
// compare.
const (
	swarLSB = 0x0101010101010101
	swarMSB = 0x8080808080808080
)

// swarMinWays is the associativity above which Access probes through
// the SWAR filter. Measured on the Hot benchmarks: at 16 ways and below
// the plain scan of the dense tag mirror — small enough to inline into
// Access — beats the filter's dependency chain (broadcast multiply,
// zero-byte detect, candidate confirm) plus the out-of-line call, so
// narrow caches keep it; past 16 ways the scan grows linearly while the
// filter stays a few word ops per 8 ways, and the filter wins on hits
// and misses both.
const swarMinWays = 16

// lookup is Set.Lookup over the dense tag mirror — the simulator's single
// hottest loop. base is the set's first index into the mirror, mask its
// validMask (both already in hand at the call site).
func (c *Cache) lookup(base int, mask uint64, tag uint64) int {
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag && mask&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// swarLookup is lookup through the packed partial-tag filter, used for
// caches wider than swarMinWays. Full sets (the steady state) run the
// SWAR compare — one word op tests 8 ways, misses usually resolve with
// no per-way scan, and hits confirm only the flagged bytes against full
// tags. Partially filled sets fall back to the plain scan, which is
// cheaper while the cache is filling.
func (c *Cache) swarLookup(setIdx, base int, mask uint64, tag uint64) int {
	if mask != c.fullMask {
		return c.lookup(base, mask, tag)
	}
	pat := uint64(uint8(tag>>c.pshift)) * swarLSB
	pb := setIdx * c.pwords
	for w, word := range c.ptags[pb : pb+c.pwords] {
		x := word ^ pat
		for cand := (x - swarLSB) &^ x & swarMSB; cand != 0; cand &= cand - 1 {
			// The mask test also rejects phantom ways past c.ways in the
			// last partial word (their validMask bits are never set).
			way := w<<3 + bits.TrailingZeros64(cand)>>3
			if mask&(1<<uint(way)) != 0 && c.tags[base+way] == tag {
				return way
			}
		}
	}
	return -1
}

// setPartial writes way's byte in the set's partial-tag filter.
func (c *Cache) setPartial(setIdx, way int, p uint8) {
	w := &c.ptags[setIdx*c.pwords+way>>3]
	sh := uint(way&7) << 3
	*w = *w&^(uint64(0xff)<<sh) | uint64(p)<<sh
}

// Invalidate removes the line holding addr if present, returning it.
// Used by tests and by hierarchy models that need back-invalidation.
func (c *Cache) Invalidate(addr uint64) (Line, bool) {
	setIdx := c.SetIndex(addr)
	tag := c.Tag(addr)
	set := &c.sets[setIdx]
	way := set.Lookup(tag)
	if way < 0 {
		return Line{}, false
	}
	line := set.Lines[way]
	if c.evictObs != nil {
		c.evictObs.ObserveEviction(setIdx, line)
	}
	set.Lines[way] = Line{}
	c.tags[setIdx*c.ways+way] = 0
	set.validMask &^= 1 << uint(way)
	if c.swar {
		c.setPartial(setIdx, way, 0)
	}
	return line, true
}

// Occupancy returns the number of valid lines (for tests and reports).
// validMask mirrors the per-line Valid flags exactly (see the mirror
// invariant on Cache.tags), so a popcount per set replaces the old
// per-line scan; TestOccupancyMatchesLineScan pins the equivalence.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.sets {
		n += bits.OnesCount64(c.sets[i].validMask)
	}
	return n
}
