package policy_test

import (
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

// oneSetCache builds a cache with a single set of the given associativity.
func oneSetCache(ways int, p cache.Policy) *cache.Cache {
	return cache.New(cache.Config{
		Name: "t", SizeBytes: ways * 64, Ways: ways, LineBytes: 64, Cores: 8,
	}, p)
}

// multiSetCache builds a cache with the given sets x ways geometry.
func multiSetCache(sets, ways, cores int, p cache.Policy) *cache.Cache {
	return cache.New(cache.Config{
		Name: "t", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64, Cores: cores,
	}, p)
}

func load(c *cache.Cache, core int, addr uint64) cache.AccessResult {
	return c.Access(&cache.Request{Addr: addr, PC: 0x400000 + uint64(core), Core: core, Kind: trace.Load})
}

func TestSRRIPScanResistance(t *testing.T) {
	// A working set that fits, re-referenced, must survive a one-shot scan
	// of moderate length under SRRIP (lines inserted with distant RRPV are
	// evicted before re-referenced lines).
	c := oneSetCache(4, policy.NewSRRIP())
	ws := []uint64{0, 64, 128} // 3 hot lines in a 4-way set (set index 0)
	for round := 0; round < 3; round++ {
		for _, a := range ws {
			load(c, 0, a)
		}
	}
	// Scan: distinct lines mapping to the same set (only 1 set here).
	for i := uint64(1); i <= 3; i++ {
		load(c, 0, 0x10000+i*64)
	}
	hot := 0
	for _, a := range ws {
		if load(c, 0, a).Hit {
			hot++
		}
	}
	if hot < 2 {
		t.Fatalf("only %d/3 hot lines survived the scan under SRRIP", hot)
	}
}

func TestLRUThrashesUnderScan(t *testing.T) {
	// Contrast case documenting why RRIP matters: LRU loses the entire hot
	// set to the same scan.
	c := oneSetCache(4, policy.NewLRU())
	ws := []uint64{0, 64, 128}
	for round := 0; round < 3; round++ {
		for _, a := range ws {
			load(c, 0, a)
		}
	}
	for i := uint64(1); i <= 3; i++ {
		load(c, 0, 0x10000+i*64)
	}
	for _, a := range ws {
		if load(c, 0, a).Hit {
			t.Fatal("LRU unexpectedly kept hot line through scan")
		}
	}
}

func TestDRRIPDuelsTowardSRRIPOnReuse(t *testing.T) {
	// A reuse-friendly workload across many sets: DRRIP must not do much
	// worse than SRRIP.
	run := func(p cache.Policy) uint64 {
		c := multiSetCache(64, 4, 1, p)
		// Working set = 128 lines (half capacity), looped many times.
		for round := 0; round < 50; round++ {
			for i := uint64(0); i < 128; i++ {
				load(c, 0, i*64)
			}
		}
		return c.Stats.Hits
	}
	srrip := run(policy.NewSRRIP())
	drrip := run(policy.NewDRRIP(2))
	if float64(drrip) < 0.8*float64(srrip) {
		t.Fatalf("DRRIP hits %d much worse than SRRIP %d on reuse workload", drrip, srrip)
	}
}

func TestDRRIPBeatsSRRIPOnThrash(t *testing.T) {
	// Cyclic working set slightly larger than the cache: SRRIP/LRU get ~0
	// hits; bimodal insertion retains a useful fraction. DRRIP must detect
	// this via dueling and approach BRRIP.
	run := func(p cache.Policy) uint64 {
		c := multiSetCache(64, 4, 1, p)
		// 320 lines cycled over a 256-line cache.
		for round := 0; round < 60; round++ {
			for i := uint64(0); i < 320; i++ {
				load(c, 0, i*64)
			}
		}
		return c.Stats.Hits
	}
	srrip := run(policy.NewSRRIP())
	drrip := run(policy.NewDRRIP(3))
	if drrip <= srrip {
		t.Fatalf("DRRIP hits %d <= SRRIP hits %d on thrashing workload", drrip, srrip)
	}
}

func TestRRIPVictimAlwaysValidWay(t *testing.T) {
	c := multiSetCache(4, 4, 1, policy.NewSRRIP())
	for i := uint64(0); i < 10000; i++ {
		load(c, 0, (i%97)*64)
	}
	if c.Stats.Accesses != 10000 {
		t.Fatal("lost accesses")
	}
}
