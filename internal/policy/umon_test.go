package policy_test

import (
	"reflect"
	"testing"

	"nucache/internal/policy"
	"nucache/internal/stats"
)

func TestUMONUtilityCurve(t *testing.T) {
	u := policy.NewUMON(4, 0) // sample everything
	// Access pattern on set 0: a b a b c a -> stack-position hits:
	// a miss, b miss, a hit@pos1, b hit@pos1, c miss, a hit@pos2.
	tags := []uint64{1, 2, 1, 2, 3, 1}
	for _, tg := range tags {
		u.Access(0, tg)
	}
	if u.Misses() != 3 {
		t.Fatalf("misses = %d", u.Misses())
	}
	if got := u.Utility(0); got != 0 {
		t.Fatalf("U(0) = %d", got)
	}
	if got := u.Utility(1); got != 0 {
		t.Fatalf("U(1) = %d (no MRU-position hits expected)", got)
	}
	if got := u.Utility(2); got != 2 {
		t.Fatalf("U(2) = %d", got)
	}
	if got := u.Utility(4); got != 3 {
		t.Fatalf("U(4) = %d", got)
	}
	// Clamps beyond associativity.
	if got := u.Utility(99); got != 3 {
		t.Fatalf("U(99) = %d", got)
	}
}

func TestUMONSampling(t *testing.T) {
	u := policy.NewUMON(4, 2) // 1 in 4 sets
	u.Access(1, 7)            // unsampled
	u.Access(4, 7)            // sampled
	if u.Accesses() != 1 {
		t.Fatalf("accesses = %d", u.Accesses())
	}
	if !u.Sampled(0) || u.Sampled(3) {
		t.Fatal("sampling predicate wrong")
	}

	// The runtime monitor and the profiler's unsampled one run a single
	// ATD walk: fed the same sampled-set stream, they see the same hits.
	rt, prof := policy.NewUMON(4, 2), policy.NewUMON(4, 0)
	rng := stats.NewRNG(5)
	for i := 0; i < 20000; i++ {
		set, tag := rng.Intn(64), rng.Uint64n(8)
		rt.Access(set, tag)
		if rt.Sampled(set) {
			prof.AccessProfiled(set, tag, 0x400000+tag, true)
		}
	}
	if !reflect.DeepEqual(rt.Hits(), prof.Hits()) || rt.Misses() != prof.Misses() {
		t.Fatalf("runtime hits %v (%d misses), profiler hits %v (%d misses)",
			rt.Hits(), rt.Misses(), prof.Hits(), prof.Misses())
	}
	if rt.Utility(4) == 0 {
		t.Fatal("stream produced no hits")
	}
}

func TestUMONResetHalves(t *testing.T) {
	u := policy.NewUMON(2, 0)
	u.Access(0, 1)
	u.Access(0, 1)
	u.Access(0, 1) // two hits at pos 0
	u.Reset()
	if got := u.Utility(2); got != 1 {
		t.Fatalf("after reset U = %d, want halved 1", got)
	}
}

func TestLookaheadGivesWaysToHighUtility(t *testing.T) {
	// Core 0: hits spread across 8 positions. Core 1: no reuse at all.
	u0 := policy.NewUMON(8, 0)
	u1 := policy.NewUMON(8, 0)
	// Build a working set of 6 tags cycled: each access to tag i hits at
	// stack depth 5 after warmup.
	for round := 0; round < 50; round++ {
		for tg := uint64(0); tg < 6; tg++ {
			u0.Access(0, tg)
		}
	}
	for i := uint64(0); i < 300; i++ {
		u1.Access(0, 1000+i) // pure stream
	}
	alloc := policy.LookaheadPartition([]*policy.UMON{u0, u1}, 8)
	if alloc[0]+alloc[1] != 8 {
		t.Fatalf("allocation %v does not sum to ways", alloc)
	}
	if alloc[0] < 6 {
		t.Fatalf("high-utility core got %d ways, want >= 6 (alloc %v)", alloc[0], alloc)
	}
}

func TestLookaheadMinPerCore(t *testing.T) {
	u0 := policy.NewUMON(4, 0)
	u1 := policy.NewUMON(4, 0)
	alloc := policy.LookaheadPartition([]*policy.UMON{u0, u1}, 4)
	if alloc[0] < 1 || alloc[1] < 1 || alloc[0]+alloc[1] != 4 {
		t.Fatalf("allocation %v", alloc)
	}
}

func TestLookaheadPanicsWhenInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	policy.LookaheadPartition([]*policy.UMON{policy.NewUMON(2, 0)}, 0)
}
