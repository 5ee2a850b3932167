package policy_test

import (
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
)

func TestPIPPProtectsAgainstStream(t *testing.T) {
	core0Hits := func(p cache.Policy) uint64 {
		c := multiSetCache(64, 4, 2, p)
		mixedDuel(c, 60)
		return c.Stats.CoreHits[0]
	}
	lru := core0Hits(policy.NewLRU())
	pipp := core0Hits(policy.NewPIPPWithEpoch(2, 4, 1, 4096))
	if float64(pipp) < 1.2*float64(lru) {
		t.Fatalf("PIPP core0 hits %d vs LRU %d: pseudo-partitioning ineffective", pipp, lru)
	}
}

func TestPIPPStreamDetection(t *testing.T) {
	p := policy.NewPIPPWithEpoch(2, 8, 2, 2000)
	c := multiSetCache(64, 8, 2, p)
	mixedDuel(c, 20)
	if p.Repartitions == 0 {
		t.Fatal("no repartitions")
	}
	alloc := p.Allocations()
	if alloc[0] <= alloc[1] {
		t.Fatalf("alloc %v does not favor reuse core", alloc)
	}
}

func TestPIPPSingleCoreSane(t *testing.T) {
	c := multiSetCache(16, 4, 1, policy.NewPIPP(1, 4, 3))
	for r := 0; r < 30; r++ {
		for i := uint64(0); i < 32; i++ { // half capacity: all hits after warmup
			load(c, 0, i*64)
		}
	}
	hitRate := c.Stats.HitRate()
	if hitRate < 0.9 {
		t.Fatalf("PIPP hit rate %.2f on trivially cacheable workload", hitRate)
	}
	if c.Occupancy() > 16*4 {
		t.Fatal("occupancy exceeds capacity")
	}
}

func TestPIPPPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	policy.NewPIPP(9, 8, 1)
}
