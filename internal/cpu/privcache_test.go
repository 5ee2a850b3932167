package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

// refHier is the reference private hierarchy: the generic cache.Cache
// under policy.NewLRU(), wired the way privHier.access documents (L2
// demand access, then the posted drain of a dirty L1 victim).
type refHier struct {
	l1, l2 *cache.Cache
}

func (h *refHier) access(addr, pc uint64, kind trace.Kind) (l1res, deepest cache.AccessResult, miss bool) {
	l1res = h.l1.Access(&cache.Request{Addr: addr, PC: pc, Kind: kind})
	if l1res.Hit || h.l2 == nil {
		return l1res, l1res, !l1res.Hit
	}
	deepest = h.l2.Access(&cache.Request{Addr: addr, PC: pc, Kind: kind})
	if l1res.EvictedValid && l1res.Evicted.Dirty {
		h.l2.Access(&cache.Request{Addr: l1res.EvictedTag << 6, PC: l1res.Evicted.PC, Kind: trace.Store})
	}
	return l1res, deepest, !deepest.Hit
}

// TestPrivHierMatchesCache pins the private-hierarchy model against the
// generic cache: identical random load/store streams through privHier
// and through cache.Cache + policy.NewLRU() must agree on every access's
// hit/miss, LLC-bound flag and victim (valid, dirty, tag, PC), and on
// every level's hit/miss counters.
func TestPrivHierMatchesCache(t *testing.T) {
	for _, ways := range []int{2, 8, 16} {
		for _, withL2 := range []bool{false, true} {
			t.Run(fmt.Sprintf("l1ways=%d/l2=%v", ways, withL2), func(t *testing.T) {
				cfg := Config{
					L1:        cache.Config{SizeBytes: 16 * ways * 64, Ways: ways, LineBytes: 64},
					L1Latency: 1,
				}
				if withL2 {
					cfg.L2 = cache.Config{SizeBytes: 64 * 8 * 64, Ways: 8, LineBytes: 64}
					cfg.L2Latency = 5
				}
				h := newPrivHier(cfg)
				ref := refHier{l1: cache.New(cfg.L1, policy.NewLRU())}
				if withL2 {
					ref.l2 = cache.New(cfg.L2, policy.NewLRU())
				}
				// Lines drawn from a footprint 4x the L2 (16x the L1 without
				// one), skewed toward a hot quarter so every outcome occurs.
				lines := uint64(4 * cfg.L1.SizeBytes / 64)
				if withL2 {
					lines = uint64(4 * cfg.L2.SizeBytes / 64)
				}
				rng := rand.New(rand.NewSource(int64(ways)))
				for i := 0; i < 200_000; i++ {
					line := uint64(rng.Int63n(int64(lines)))
					if rng.Intn(2) == 0 {
						line %= lines / 4
					}
					addr := line<<6 | uint64(rng.Intn(64))
					pc := uint64(rng.Intn(32))
					kind := trace.Load
					if rng.Intn(3) == 0 {
						kind = trace.Store
					}

					cycles, got, gotMiss := h.access(addr, pc, kind == trace.Store)
					l1res, want, wantMiss := ref.access(addr, pc, kind)
					wantCycles := cfg.L1Latency
					if !l1res.Hit && withL2 {
						wantCycles += cfg.L2Latency
					}
					if gotMiss != wantMiss || got.hit != want.Hit || cycles != wantCycles ||
						got.evValid != want.EvictedValid ||
						(want.EvictedValid && (got.evDirty != want.Evicted.Dirty ||
							got.evTag != want.EvictedTag || got.evPC != want.Evicted.PC)) {
						t.Fatalf("access %d (%#x pc %d %v): privHier %+v miss=%v cycles=%d; cache %+v miss=%v cycles=%d",
							i, addr, pc, kind, got, gotMiss, cycles, want, wantMiss, wantCycles)
					}
					if h.l1.hits != ref.l1.Stats.Hits || h.l1.misses != ref.l1.Stats.Misses {
						t.Fatalf("access %d: L1 counters %d/%d, cache %d/%d",
							i, h.l1.hits, h.l1.misses, ref.l1.Stats.Hits, ref.l1.Stats.Misses)
					}
					if withL2 && (h.l2.hits != ref.l2.Stats.Hits || h.l2.misses != ref.l2.Stats.Misses) {
						t.Fatalf("access %d: L2 counters %d/%d, cache %d/%d",
							i, h.l2.hits, h.l2.misses, ref.l2.Stats.Hits, ref.l2.Stats.Misses)
					}
				}
				if h.l1.hits == 0 || h.l1.misses == 0 || (withL2 && (h.l2.hits == 0 || h.l2.misses == 0)) {
					t.Fatalf("stream did not exercise both outcomes: L1 %d/%d", h.l1.hits, h.l1.misses)
				}
			})
		}
	}
}
