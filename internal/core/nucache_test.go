package core_test

import (
	"testing"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

func newCache(sets, ways, cores int, p cache.Policy) *cache.Cache {
	return cache.New(cache.Config{
		Name: "llc", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64, Cores: cores,
	}, p)
}

func access(c *cache.Cache, core int, pc, addr uint64) cache.AccessResult {
	return c.Access(&cache.Request{Addr: addr, PC: pc, Core: core, Kind: trace.Load})
}

// pollutedReuse drives the canonical NUcache scenario on a cache: PC A
// loops over `hot` lines per set while PC B streams junk through the same
// sets, flushing an LRU cache between A's rounds.
func pollutedReuse(c *cache.Cache, sets int, rounds, hot, junkPerRound int) (aHits, aAccesses uint64) {
	const (
		pcA = 0x400100
		pcB = 0x400200
	)
	junk := uint64(1 << 30)
	stride := uint64(sets * 64)
	for r := 0; r < rounds; r++ {
		for i := 0; i < hot; i++ {
			for s := 0; s < sets; s++ {
				addr := uint64(i)*stride + uint64(s)*64
				if access(c, 0, pcA, addr).Hit {
					aHits++
				}
				aAccesses++
			}
		}
		for i := 0; i < junkPerRound; i++ {
			for s := 0; s < sets; s++ {
				access(c, 0, pcB, junk)
				junk += 64
			}
		}
	}
	return aHits, aAccesses
}

func nuConfig(ways, deli int) core.Config {
	return core.Config{
		Ways:        ways,
		DeliWays:    deli,
		Candidates:  8,
		EpochMisses: 2000,
		SampleShift: 0, // monitor everything: tiny caches in tests
	}
}

func TestNUcacheBeatsLRUUnderPollution(t *testing.T) {
	const sets, ways = 16, 8
	lru := newCache(sets, ways, 1, policy.NewLRU())
	lruHits, _ := pollutedReuse(lru, sets, 80, 6, 10)

	// The strictly periodic toy pattern makes the exact rate model
	// conservative (deli drains only during A's burst); run the mechanism
	// test under an optimistic selection so PC A is chosen.
	cfg := nuConfig(ways, 3)
	cfg.LifetimeSlack = 2
	nu := core.MustNew(cfg)
	c := newCache(sets, ways, 1, nu)
	nuHits, aAcc := pollutedReuse(c, sets, 80, 6, 10)

	if lruHits > aAcc/10 {
		t.Fatalf("scenario broken: LRU already hits %d/%d", lruHits, aAcc)
	}
	if nuHits < 2*lruHits+aAcc/10 {
		t.Fatalf("NUcache hits %d not clearly above LRU %d (of %d)", nuHits, lruHits, aAcc)
	}
	if nu.DeliHits == 0 {
		t.Fatal("no DeliWay hits recorded")
	}
	if nu.Epochs == 0 {
		t.Fatal("no selection epochs ran")
	}
	chosen := nu.ChosenPCs()
	found := false
	for _, pc := range chosen {
		if pc == 0x400100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("delinquent PC A not chosen; chosen = %#x", chosen)
	}
}

func TestNUcacheZeroDeliWaysIsMainWaysLRU(t *testing.T) {
	// With D=0 NUcache is LRU over all ways: same hits as plain LRU.
	const sets, ways = 8, 4
	run := func(p cache.Policy) uint64 {
		c := newCache(sets, ways, 1, p)
		h, _ := pollutedReuse(c, sets, 20, 3, 2)
		return h
	}
	nu := run(core.MustNew(nuConfig(ways, 0)))
	lru := run(policy.NewLRU())
	if nu != lru {
		t.Fatalf("D=0 NUcache hits %d != LRU hits %d", nu, lru)
	}
}

func TestNUcacheUnchosenNeverEntersDeliWays(t *testing.T) {
	nu := core.MustNew(nuConfig(4, 2))
	c := newCache(4, 4, 1, nu)
	// Pure stream: nothing reusable, so nothing should ever be chosen and
	// DeliWays must stay empty (insertions == 0).
	for i := uint64(0); i < 20000; i++ {
		access(c, 0, 0x999, i*64)
	}
	if nu.Epochs == 0 {
		t.Fatal("no epochs")
	}
	if len(nu.ChosenPCs()) != 0 {
		t.Fatalf("streaming PC chosen: %#x", nu.ChosenPCs())
	}
	if nu.DeliHits != 0 {
		t.Fatal("impossible DeliWay hits on pure stream")
	}
}

func TestNUcacheOccupancyNeverExceedsCapacity(t *testing.T) {
	nu := core.MustNew(nuConfig(8, 3))
	c := newCache(4, 8, 1, nu)
	lru := policy.NewLRU()
	_ = lru
	for i := uint64(0); i < 50000; i++ {
		// Mixed reuse + stream with several PCs.
		pc := 0x400000 + (i%5)*4
		addr := (i * 2654435761) % (1 << 20)
		access(c, 0, pc, addr&^63)
		if i%97 == 0 && c.Occupancy() > 4*8 {
			t.Fatalf("occupancy %d exceeds capacity", c.Occupancy())
		}
	}
	if c.Occupancy() > 4*8 {
		t.Fatalf("final occupancy %d", c.Occupancy())
	}
}

func TestNUcacheMainDeliPartitionInvariant(t *testing.T) {
	// After heavy traffic, every valid line must be tracked by exactly one
	// of the two lists, and list sizes must respect M and D.
	cfg := nuConfig(8, 3)
	nu := core.MustNew(cfg)
	c := newCache(4, 8, 1, nu)
	pollutedReuse(c, 4, 50, 5, 8)
	// Inspect through the public Set accessor.
	for s := 0; s < c.NumSets(); s++ {
		set := c.Set(s)
		valid := 0
		for i := range set.Lines {
			if set.Valid(i) {
				valid++
			}
		}
		// The state type is unexported; the invariant is observable via
		// occupancy: valid lines never exceed ways.
		if valid > 8 {
			t.Fatalf("set %d has %d valid lines", s, valid)
		}
	}
}

func TestNUcachePromoteOnDeliHitAblation(t *testing.T) {
	// Promotion should never make things dramatically worse; both modes
	// must deliver DeliWay hits in the pollution scenario.
	for _, promote := range []bool{true, false} {
		cfg := nuConfig(8, 3)
		cfg.LifetimeSlack = 2 // see TestNUcacheBeatsLRUUnderPollution
		cfg.PromoteOnDeliHit = promote
		nu := core.MustNew(cfg)
		c := newCache(16, 8, 1, nu)
		pollutedReuse(c, 16, 80, 6, 10)
		if nu.DeliHits == 0 {
			t.Fatalf("promote=%v: no DeliWay hits", promote)
		}
	}
}

func TestNUcacheConfigValidation(t *testing.T) {
	if _, err := core.New(core.Config{Ways: 0}); err == nil {
		t.Fatal("Ways=0 accepted")
	}
	if _, err := core.New(core.Config{Ways: cache.MaxWays + 1}); err == nil {
		t.Fatal("Ways=MaxWays+1 accepted")
	}
	if _, err := core.New(core.Config{Ways: 8, DeliWays: 8}); err == nil {
		t.Fatal("DeliWays=Ways accepted")
	}
	if _, err := core.New(core.Config{Ways: 8, DeliWays: -1}); err == nil {
		t.Fatal("negative DeliWays accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	core.MustNew(core.Config{Ways: -1})
}

func TestNUcacheDefaults(t *testing.T) {
	p := core.MustNew(core.Config{Ways: 16, DeliWays: 6})
	cfg := p.Config()
	if cfg.Candidates != 32 || cfg.EpochMisses != 100_000 || cfg.MainWays() != 10 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.LifetimeSlack != 1 {
		t.Fatalf("slack default = %v", cfg.LifetimeSlack)
	}
	d := core.DefaultConfig(16)
	if d.Ways != 16 || d.DeliWays != 6 {
		t.Fatalf("DefaultConfig = %+v", d)
	}
	if p.Name() != "NUcache" {
		t.Fatal("name")
	}
}

func TestOverheadModel(t *testing.T) {
	cfg := core.DefaultConfig(16)
	o := cfg.Overhead(1024, 28, 64)
	if o.TotalBits <= 0 || o.CacheBits <= 0 {
		t.Fatalf("overhead = %+v", o)
	}
	// The paper's storage argument: small single-digit percentage.
	if pct := o.Percent(); pct <= 0 || pct > 10 {
		t.Fatalf("overhead percent = %.2f, want (0, 10]", pct)
	}
	if o.TotalBits != o.LinesBits+o.MonitorBits+o.SelectionBits {
		t.Fatal("components do not sum")
	}
	if (core.Config{}).Overhead(1024, 28, 64) != (core.Overhead{}) {
		t.Fatal("invalid config should yield zero overhead")
	}
}

func TestNUcacheCrossCoreSelection(t *testing.T) {
	// Two programs share the LLC: core 0 has a protectable hot loop
	// (PC tagged c0), core 1 streams (PC tagged c1). The chosen set must
	// contain only core 0's PC — NUcache's implicit utility partitioning.
	const (
		pcHot    = 0x400100 | 0<<48
		pcStream = 0x400200 | 1<<48
	)
	cfg := nuConfig(8, 3)
	cfg.LifetimeSlack = 2
	nu := core.MustNew(cfg)
	c := newCache(16, 8, 2, nu)
	stream := uint64(1 << 30)
	for round := 0; round < 150; round++ {
		for i := 0; i < 6; i++ {
			for s := 0; s < 16; s++ {
				access(c, 0, pcHot, uint64(i)*16*64+uint64(s)*64)
			}
		}
		for i := 0; i < 10*16; i++ {
			access(c, 1, pcStream, stream)
			stream += 64
		}
	}
	if nu.Epochs == 0 {
		t.Fatal("no epochs")
	}
	chosen := nu.ChosenPCs()
	for _, pc := range chosen {
		if pc>>48 == 1 {
			t.Fatalf("streaming core's PC chosen: %#x", pc)
		}
	}
	found := false
	for _, pc := range chosen {
		if pc == pcHot {
			found = true
		}
	}
	if !found {
		t.Fatalf("hot core's PC not chosen: %#x", chosen)
	}
	// And the retention must translate into DeliWay hits for core 0.
	if nu.DeliHits == 0 {
		t.Fatal("no DeliWay hits")
	}
}

func TestNUcacheFallbackUsesAllWays(t *testing.T) {
	// With nothing choosable, NUcache must behave exactly like full
	// 16-way LRU (not MainWays-only LRU): a working set of exactly
	// Ways lines per set must fully hit after one pass.
	nu := core.MustNew(nuConfig(8, 3))
	c := newCache(4, 8, 1, nu)
	// One pass fills; misses trigger an epoch eventually (chosen stays
	// empty: no reuse observed yet at selection time).
	for pass := 0; pass < 20; pass++ {
		for i := 0; i < 8; i++ {
			for s := 0; s < 4; s++ {
				access(c, 0, 0x999, uint64(i)*4*64+uint64(s)*64)
			}
		}
	}
	// Steady state: everything fits in 8 ways -> all hits.
	hits := uint64(0)
	for i := 0; i < 8; i++ {
		for s := 0; s < 4; s++ {
			if access(c, 0, 0x999, uint64(i)*4*64+uint64(s)*64).Hit {
				hits++
			}
		}
	}
	if hits != 32 {
		t.Fatalf("only %d/32 hits: fallback not using all ways", hits)
	}
}

func TestNUcacheAdaptiveDeliWays(t *testing.T) {
	cfg := nuConfig(8, 6) // up to 6 DeliWays available
	cfg.AdaptiveDeliWays = true
	cfg.LifetimeSlack = 2
	nu := core.MustNew(cfg)
	c := newCache(16, 8, 1, nu)
	pollutedReuse(c, 16, 120, 6, 10)
	if nu.Epochs == 0 {
		t.Fatal("no epochs")
	}
	d := nu.DeliWaysInUse()
	if d < 2 || d > 6 || d%2 != 0 {
		t.Fatalf("adaptive D = %d out of candidate range", d)
	}
	if nu.DeliHits == 0 {
		t.Fatal("adaptive mode delivered no DeliWay hits")
	}
}

func TestNUcacheAdaptiveOffByDefault(t *testing.T) {
	nu := core.MustNew(nuConfig(8, 3))
	if nu.DeliWaysInUse() != 3 {
		t.Fatalf("DeliWaysInUse = %d", nu.DeliWaysInUse())
	}
}
