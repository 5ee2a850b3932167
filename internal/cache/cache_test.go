package cache_test

import (
	"math/rand"
	"strings"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

func tinyCache(t *testing.T, ways int) *cache.Cache {
	t.Helper()
	return cache.New(cache.Config{
		Name:      "test",
		SizeBytes: 4 * ways * 64, // 4 sets
		Ways:      ways,
		LineBytes: 64,
		Cores:     2,
	}, policy.NewLRU())
}

func access(c *cache.Cache, addr uint64) cache.AccessResult {
	return c.Access(&cache.Request{Addr: addr, PC: 0x400000, Kind: trace.Load})
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := tinyCache(t, 4)
	if r := access(c, 0x1000); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := access(c, 0x1000); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := access(c, 0x1038); !r.Hit { // same 64B line
		t.Fatal("same-line access missed")
	}
	if c.Stats.Accesses != 3 || c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := tinyCache(t, 2) // 4 sets, 2 ways
	// Three distinct lines mapping to set 0 (stride = sets*line = 256).
	a, b, d := uint64(0), uint64(256), uint64(512)
	access(c, a)
	access(c, b)
	r := access(c, d) // must evict a (LRU)
	if !r.EvictedValid() || r.EvictedTag != c.Tag(a) {
		t.Fatalf("evicted tag %#x, want tag of a", r.EvictedTag)
	}
	if access(c, b).Hit != true {
		t.Fatal("b should still hit")
	}
	if access(c, a).Hit {
		t.Fatal("a should have been evicted")
	}
}

func TestCacheLRURecencyOnHit(t *testing.T) {
	c := tinyCache(t, 2)
	a, b, d := uint64(0), uint64(256), uint64(512)
	access(c, a)
	access(c, b)
	access(c, a) // a becomes MRU
	access(c, d) // evicts b
	if !access(c, a).Hit {
		t.Fatal("a evicted despite recency")
	}
	if access(c, b).Hit {
		t.Fatal("b not evicted")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := tinyCache(t, 1)
	c.Access(&cache.Request{Addr: 0, Kind: trace.Store})
	r := c.Access(&cache.Request{Addr: 256, Kind: trace.Load})
	if !r.EvictedValid() || !r.EvictedDirty() {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
	// Load-filled line made dirty by a later store hit.
	c.Access(&cache.Request{Addr: 512, Kind: trace.Load})
	c.Access(&cache.Request{Addr: 512, Kind: trace.Store})
	r = c.Access(&cache.Request{Addr: 768, Kind: trace.Load})
	if !r.EvictedDirty() {
		t.Fatal("store hit did not dirty line")
	}
}

func TestCachePerCoreStats(t *testing.T) {
	c := tinyCache(t, 4)
	c.Access(&cache.Request{Addr: 0, Core: 0})
	c.Access(&cache.Request{Addr: 0, Core: 1})
	c.Access(&cache.Request{Addr: 64, Core: 1})
	if c.Stats.CoreAccesses[0] != 1 || c.Stats.CoreAccesses[1] != 2 {
		t.Fatalf("core accesses = %v", c.Stats.CoreAccesses)
	}
	if c.Stats.CoreMisses[0] != 1 || c.Stats.CoreHits[1] != 1 || c.Stats.CoreMisses[1] != 1 {
		t.Fatalf("core stats = %+v", c.Stats)
	}
	// Out-of-range core indexes fold into core 0 rather than crashing.
	c.Access(&cache.Request{Addr: 128, Core: 99})
	if c.Stats.CoreAccesses[0] != 2 {
		t.Fatal("out-of-range core not folded")
	}
}

func TestCacheLineMetadata(t *testing.T) {
	c := tinyCache(t, 2)
	c.Access(&cache.Request{Addr: 0x40, PC: 0xabc, Core: 1, Kind: trace.Store})
	set := c.Set(c.SetIndex(0x40))
	way := set.Lookup(c.Tag(0x40))
	if way < 0 {
		t.Fatal("line not installed")
	}
	l := set.Lines[way]
	if l.PC != 0xabc || l.Core != 1 || !l.Dirty || !set.Valid(way) || set.Tag(way) != c.Tag(0x40) {
		t.Fatalf("line = %+v, valid %v, tag %#x", l, set.Valid(way), set.Tag(way))
	}
}

func TestCacheOccupancyBounded(t *testing.T) {
	c := tinyCache(t, 2) // capacity 8 lines
	for i := uint64(0); i < 100; i++ {
		access(c, i*64)
	}
	if got := c.Occupancy(); got != 8 {
		t.Fatalf("occupancy = %d, want 8", got)
	}
}

// TestAccessAgreesWithResidentTags checks Access and Occupancy against
// a model of the resident tags kept from the results alone: a miss adds
// its tag, and each EvictedTag removes one. Every hit must find its tag
// resident, every miss must not, and Occupancy must equal the model's
// size, across narrow and wide geometries.
func TestAccessAgreesWithResidentTags(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ways := range []int{1, 3, 7, 8, 9, 16, 64} {
		var pol cache.Policy = policy.NewLRU() // supports up to 16 ways
		if ways > 16 {
			pol = policy.NewRandom(3)
		}
		c := cache.New(cache.Config{
			Name: "scan", SizeBytes: 4 * ways * 64, Ways: ways, LineBytes: 64, Cores: 1,
		}, pol)
		resident := map[uint64]bool{}
		for op := 0; op < 3000; op++ {
			addr := uint64(rng.Intn(32*ways)) * 64
			tag := c.Tag(addr)
			want := resident[tag]
			r := access(c, addr)
			if r.Hit != want {
				t.Fatalf("ways=%d op=%d addr=%#x: Access hit=%v, resident=%v",
					ways, op, addr, r.Hit, want)
			}
			if !r.Hit {
				resident[tag] = true
			}
			if r.EvictedValid() {
				if !resident[r.EvictedTag] || r.EvictedTag == tag {
					t.Fatalf("ways=%d op=%d: evicted tag %#x was not resident", ways, op, r.EvictedTag)
				}
				delete(resident, r.EvictedTag)
			}
			if got := c.Occupancy(); got != len(resident) {
				t.Fatalf("ways=%d op=%d: Occupancy=%d, resident tags=%d", ways, op, got, len(resident))
			}
		}
	}
}

// TestLookupPartialTagCollisions drives a full 32-way set whose
// resident tags agree in their low bytes and differ only higher up, so
// the scan must compare every tag in full. A second cache fills the set
// with tags whose low byte is zero, tag 0 included (the value every
// empty mirror slot holds). Random's victim choice prefers invalid ways,
// making the fills deterministic.
func TestLookupPartialTagCollisions(t *testing.T) {
	wide := func() *cache.Cache {
		return cache.New(cache.Config{
			Name:      "wide",
			SizeBytes: 4 * 32 * 64, // 4 sets: the low 2 tag bits are the set index
			Ways:      32,
			LineBytes: 64,
			Cores:     1,
		}, policy.NewRandom(9))
	}
	// Strides of sets*256 lines keep the set index and the tag's low
	// byte above the index bits equal while the full tags differ; +0x100
	// makes that shared byte nonzero (1) so no tag equals a cleared
	// mirror slot.
	const stride = uint64(4 * 256 * 64)

	c := wide()
	for i := uint64(0); i < 32; i++ {
		if access(c, 0x100+i*stride).Hit {
			t.Fatalf("cold access %d hit", i)
		}
	}
	// Set 0 is now full of lines that share that byte: only the full
	// tag separates them.
	for i := uint64(0); i < 32; i++ {
		if !access(c, 0x100+i*stride).Hit {
			t.Fatalf("colliding resident %d missed", i)
		}
	}
	// A 33rd line sharing the byte must still miss.
	if access(c, 0x100+32*stride).Hit {
		t.Fatal("absent colliding line hit")
	}

	// Tags whose low byte is zero, including tag 0 itself: a full set of
	// valid lines that share the zero byte. Probes for residents must
	// hit, and an absent line with the same zero byte must still miss.
	c2 := wide()
	for i := uint64(0); i < 32; i++ {
		access(c2, i*stride) // tag i*1024: low byte 0 for all i
	}
	for i := uint64(0); i < 32; i++ {
		if !access(c2, i*stride).Hit {
			t.Fatalf("zero-partial resident %d missed", i)
		}
	}
	if access(c2, 32*stride).Hit {
		t.Fatal("absent zero-partial line hit")
	}
}

func TestCacheSeqAssigned(t *testing.T) {
	c := tinyCache(t, 2)
	r1 := &cache.Request{Addr: 0}
	r2 := &cache.Request{Addr: 64}
	c.Access(r1)
	c.Access(r2)
	if r1.Seq != 0 || r2.Seq != 1 {
		t.Fatalf("seq = %d, %d", r1.Seq, r2.Seq)
	}
}

func TestCachePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cache.New(cache.Config{Name: "bad", SizeBytes: 100, Ways: 3, LineBytes: 7}, policy.NewLRU())
}

// fixedVictimPolicy returns the same way from every Victim call.
type fixedVictimPolicy struct {
	policy.LRU
	way int
}

func (*fixedVictimPolicy) Name() string { return "FixedVictim" }

func (p *fixedVictimPolicy) Victim(*cache.Set, *cache.Request) int { return p.way }

// TestCacheRejectsOutOfRangeVictim: Victim must return a way in
// [0, ways); a way on either side of that range panics with a message
// naming the policy instead of skipping the fill or indexing past the set.
func TestCacheRejectsOutOfRangeVictim(t *testing.T) {
	const ways = 2
	for _, way := range []int{-1, ways} {
		c := cache.New(cache.Config{Name: "v", SizeBytes: 2 * 64 * ways, Ways: ways, LineBytes: 64},
			&fixedVictimPolicy{way: way})
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"FixedVictim"`) {
					t.Errorf("way %d: panic = %q, want one naming the policy", way, msg)
				}
			}()
			access(c, 0)
		}()
	}
}

func TestRandomPolicyBounds(t *testing.T) {
	c := cache.New(cache.Config{Name: "r", SizeBytes: 4 * 64 * 4, Ways: 4, LineBytes: 64},
		policy.NewRandom(1))
	for i := uint64(0); i < 1000; i++ {
		access(c, i*64)
	}
	if c.Occupancy() != 16 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
}

func TestNRUPolicyBasics(t *testing.T) {
	c := cache.New(cache.Config{Name: "n", SizeBytes: 1 * 64 * 4, Ways: 4, LineBytes: 64},
		policy.NewNRU())
	// Fill the single... four sets? SizeBytes=256, ways=4, line=64 -> 1 set.
	for i := uint64(0); i < 4; i++ {
		access(c, i*64)
	}
	// Touch line 0 so it is protected, then miss: victim must not be line 0.
	access(c, 0)
	r := access(c, 4*64)
	if r.EvictedTag == c.Tag(0) {
		t.Fatal("NRU evicted the just-referenced line")
	}
	if !access(c, 0).Hit {
		t.Fatal("referenced line was evicted")
	}
}

// observingPolicy counts observer callbacks to verify the cache honors
// the optional interface.
type observingPolicy struct {
	policy.LRU
	accesses int
}

func (o *observingPolicy) ObserveAccess(setIndex int, tag uint64, req *cache.Request) {
	o.accesses++
}

func TestObserverInterfacesInvoked(t *testing.T) {
	obs := &observingPolicy{}
	c := cache.New(cache.Config{Name: "o", SizeBytes: 2 * 64 * 4, Ways: 2, LineBytes: 64}, obs)
	// 3 lines into a 2-way set: 3 accesses observed.
	for i := uint64(0); i < 3; i++ {
		c.Access(&cache.Request{Addr: i * 4 * 64})
	}
	if obs.accesses != 3 {
		t.Fatalf("observed %d accesses", obs.accesses)
	}
}
