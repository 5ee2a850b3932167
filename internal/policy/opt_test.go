package policy_test

import (
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
	"nucache/internal/stats"
)

func TestNextUseChain(t *testing.T) {
	lines := []uint64{1, 2, 1, 3, 2, 1}
	next := policy.NextUseChain(lines)
	want := []uint64{2, 4, 5, policy.NeverUsed, policy.NeverUsed, policy.NeverUsed}
	for i := range want {
		if next[i] != want[i] {
			t.Fatalf("next[%d] = %d, want %d", i, next[i], want[i])
		}
	}
	if got := policy.NextUseChain(nil); len(got) != 0 {
		t.Fatal("empty chain not empty")
	}
}

func TestOPTIsOptimalOnKnownPattern(t *testing.T) {
	// Classic example: 2-way set, accesses a b c a b c...
	// LRU gets zero hits; OPT keeps one of the pair and hits every cycle
	// on it (hit rate 1/3 asymptotically).
	var addrs []uint64
	for r := 0; r < 100; r++ {
		addrs = append(addrs, 0, 64, 128)
	}
	runWith := func(p cache.Policy) uint64 {
		c := cache.New(cache.Config{Name: "o", SizeBytes: 2 * 64, Ways: 2, LineBytes: 64}, p)
		for _, a := range addrs {
			load(c, 0, a)
		}
		return c.Stats.Hits
	}
	lines := make([]uint64, len(addrs))
	for i, a := range addrs {
		lines[i] = a >> 6
	}
	opt := runWith(policy.NewOPT(policy.NextUseChain(lines)))
	lru := runWith(policy.NewLRU())
	if lru != 0 {
		t.Fatalf("LRU hits = %d, want 0 on cyclic overflow", lru)
	}
	if opt < 90 {
		t.Fatalf("OPT hits = %d, want ~99", opt)
	}
}

func TestOPTNeverWorseThanLRU(t *testing.T) {
	// Property: on random traces, OPT (with exact future) >= LRU hits.
	rng := stats.NewRNG(99)
	for trial := 0; trial < 10; trial++ {
		n := 2000
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(96)) * 64
		}
		lines := make([]uint64, n)
		for i, a := range addrs {
			lines[i] = a >> 6
		}
		runWith := func(p cache.Policy) uint64 {
			c := cache.New(cache.Config{Name: "o", SizeBytes: 8 * 64 * 4, Ways: 8, LineBytes: 64}, p)
			for _, a := range addrs {
				load(c, 0, a)
			}
			return c.Stats.Hits
		}
		opt := runWith(policy.NewOPT(policy.NextUseChain(lines)))
		lru := runWith(policy.NewLRU())
		if opt < lru {
			t.Fatalf("trial %d: OPT hits %d < LRU hits %d", trial, opt, lru)
		}
	}
}

func TestOPTBeyondHorizonSafe(t *testing.T) {
	c := cache.New(cache.Config{Name: "o", SizeBytes: 2 * 64, Ways: 2, LineBytes: 64},
		policy.NewOPT(policy.NextUseChain([]uint64{0})))
	for i := uint64(0); i < 100; i++ {
		load(c, 0, i*64) // far past the 1-entry horizon
	}
	if c.Stats.Accesses != 100 {
		t.Fatal("accesses lost")
	}
}

func TestRecorderCapturesLineAddrs(t *testing.T) {
	rec := policy.NewRecorder(policy.NewLRU())
	c := multiSetCache(4, 2, 1, rec)
	load(c, 0, 0)
	load(c, 0, 64)
	load(c, 0, 0)
	want := []uint64{0, 1, 0}
	if len(rec.LineAddrs) != 3 {
		t.Fatalf("recorded %d", len(rec.LineAddrs))
	}
	for i := range want {
		if rec.LineAddrs[i] != want[i] {
			t.Fatalf("line %d = %d, want %d", i, rec.LineAddrs[i], want[i])
		}
	}
}

func TestRecorderChainsInnerObserver(t *testing.T) {
	ucp := policy.NewUCPWithEpoch(2, 4, 500)
	rec := policy.NewRecorder(ucp)
	c := multiSetCache(64, 4, 2, rec)
	mixedDuel(c, 5)
	if len(rec.LineAddrs) == 0 {
		t.Fatal("recorder empty")
	}
	// UCP only repartitions if its ObserveAccess kept firing through the
	// recorder wrapper.
	if ucp.Repartitions == 0 {
		t.Fatal("inner observer starved: recorder did not chain ObserveAccess")
	}
}
