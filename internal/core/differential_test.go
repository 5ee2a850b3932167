package core_test

import (
	"math/rand"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

// TestNUcacheDeliZeroMatchesLRU is a differential property test: with
// DeliWays=0 retention is disabled and NUcache's MainWays are a plain LRU
// stack over the full associativity, so its hit/miss behaviour must be
// IDENTICAL to the LRU baseline on any trace — even while the monitor and
// the epoch machinery keep running underneath. A short epoch forces many
// selections (all necessarily empty) so the equivalence also covers the
// selection boundary, not just steady state.
func TestNUcacheDeliZeroMatchesLRU(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, 1337} {
		seed := seed
		t.Run("", func(t *testing.T) {
			mkCache := func(p cache.Policy) *cache.Cache {
				return cache.New(cache.Config{
					Name: "diff", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, Cores: 1,
				}, p)
			}
			nu := core.MustNew(core.Config{
				Ways:        8,
				DeliWays:    0,
				EpochMisses: 800, // many epoch boundaries within the trace
			})
			cNU := mkCache(nu)
			cLRU := mkCache(policy.NewLRU())

			rng := rand.New(rand.NewSource(seed))
			const accesses = 200_000
			// Footprint ~4x the cache: plenty of hits AND misses. A small
			// PC pool gives the monitor realistic per-PC aggregation.
			const lines = 4 * (64 << 10) / 64
			for i := 0; i < accesses; i++ {
				var addr uint64
				if rng.Intn(4) == 0 {
					addr = uint64(rng.Intn(lines/16)) * 64 // hot region
				} else {
					addr = uint64(rng.Intn(lines)) * 64
				}
				kind := trace.Load
				if rng.Intn(8) == 0 {
					kind = trace.Store
				}
				pc := 0x400000 + uint64(rng.Intn(24))*4
				ra := cache.Request{Addr: addr, PC: pc, Kind: kind}
				rb := ra
				resNU := cNU.Access(&ra)
				resLRU := cLRU.Access(&rb)
				if resNU.Hit != resLRU.Hit {
					t.Fatalf("access %d (addr %#x): NUcache hit=%v, LRU hit=%v",
						i, addr, resNU.Hit, resLRU.Hit)
				}
				if resNU.EvictedValid != resLRU.EvictedValid ||
					(resNU.EvictedValid && resNU.EvictedTag != resLRU.EvictedTag) {
					t.Fatalf("access %d (addr %#x): eviction diverged (NUcache %+v, LRU %+v)",
						i, addr, resNU, resLRU)
				}
			}
			if cNU.Stats.Hits != cLRU.Stats.Hits || cNU.Stats.Misses != cLRU.Stats.Misses ||
				cNU.Stats.Evictions != cLRU.Stats.Evictions || cNU.Stats.Writebacks != cLRU.Stats.Writebacks {
				t.Fatalf("aggregate stats diverged: NUcache %+v vs LRU %+v", cNU.Stats, cLRU.Stats)
			}
			if nu.DeliHits != 0 || nu.DeliInsertions != 0 {
				t.Fatalf("DeliWays used with DeliWays=0: hits=%d insertions=%d",
					nu.DeliHits, nu.DeliInsertions)
			}
			if nu.Epochs == 0 {
				t.Fatal("no epochs completed: selection boundary untested")
			}
		})
	}
}
