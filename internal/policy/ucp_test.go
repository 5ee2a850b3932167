package policy_test

import (
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
)

// mixedDuel runs a cache-friendly core 0 against a streaming core 1.
func mixedDuel(c *cache.Cache, rounds int) {
	streamAddr := uint64(1 << 30)
	for r := 0; r < rounds; r++ {
		for i := uint64(0); i < 192; i++ { // 3/4 of a 64x4 cache
			load(c, 0, i*64)
		}
		for i := 0; i < 192; i++ { // never-reused stream
			load(c, 1, streamAddr)
			streamAddr += 64
		}
	}
}

func TestUCPProtectsHighUtilityCore(t *testing.T) {
	core0Hits := func(p cache.Policy) uint64 {
		c := multiSetCache(64, 4, 2, p)
		mixedDuel(c, 60)
		return c.Stats.CoreHits[0]
	}
	lru := core0Hits(policy.NewLRU())
	ucp := core0Hits(policy.NewUCPWithEpoch(2, 4, 4096))
	if float64(ucp) < 1.3*float64(lru) {
		t.Fatalf("UCP core0 hits %d vs LRU %d: partitioning ineffective", ucp, lru)
	}
}

func TestUCPRepartitionsAndAllocSumsToWays(t *testing.T) {
	p := policy.NewUCPWithEpoch(2, 8, 1000)
	c := multiSetCache(64, 8, 2, p)
	mixedDuel(c, 10)
	if p.Repartitions == 0 {
		t.Fatal("no repartitions happened")
	}
	alloc := p.Allocations()
	sum := 0
	for _, a := range alloc {
		if a < 1 {
			t.Fatalf("core starved: %v", alloc)
		}
		sum += a
	}
	if sum != 8 {
		t.Fatalf("alloc %v sums to %d", alloc, sum)
	}
	// The friendly core must win the majority of ways.
	if alloc[0] <= alloc[1] {
		t.Fatalf("alloc %v does not favor the high-utility core", alloc)
	}
}

func TestUCPPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	policy.NewUCP(8, 4)
}

func TestUCPSingleCoreDegeneratesToLRU(t *testing.T) {
	// With one core the quota is all ways and victim picking is plain LRU.
	seq := func(p cache.Policy) uint64 {
		c := multiSetCache(16, 4, 1, p)
		for r := 0; r < 20; r++ {
			for i := uint64(0); i < 48; i++ {
				load(c, 0, i*64)
			}
		}
		return c.Stats.Hits
	}
	if got, want := seq(policy.NewUCP(1, 4)), seq(policy.NewLRU()); got != want {
		t.Fatalf("UCP single-core hits %d != LRU hits %d", got, want)
	}
}
