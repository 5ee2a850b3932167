package core

import (
	"testing"

	"nucache/internal/cache"
	"nucache/internal/stats"
	"nucache/internal/trace"
)

// checkSetInvariants verifies the structural invariants of one set's
// MainWays/DeliWays organization against the physical lines. Lines
// leave the cache only by replacement, so every valid way is in
// exactly one list and no list holds an invalid way.
func checkSetInvariants(t *testing.T, p *NUcache, set *cache.Set) {
	t.Helper()
	st := &p.sets[set.Index()]

	if got := st.deli.Len(); got > p.cfg.DeliWays {
		t.Fatalf("set %d: deli holds %d > D=%d", set.Index(), got, p.cfg.DeliWays)
	}
	if got := st.main.Len() + st.deli.Len(); got > p.cfg.Ways {
		t.Fatalf("set %d: lists track %d > %d ways", set.Index(), got, p.cfg.Ways)
	}

	seen := map[int]string{}
	for i := 0; i < st.main.Len(); i++ {
		w := st.main.At(i)
		if prev, dup := seen[w]; dup {
			t.Fatalf("set %d: way %d in main and %s", set.Index(), w, prev)
		}
		seen[w] = "main"
		if !set.Valid(w) {
			t.Fatalf("set %d: main tracks invalid way %d", set.Index(), w)
		}
	}
	for i := 0; i < st.deli.Len(); i++ {
		w := st.deli.At(i)
		if prev, dup := seen[w]; dup {
			t.Fatalf("set %d: way %d in deli and %s", set.Index(), w, prev)
		}
		seen[w] = "deli"
		if !set.Valid(w) {
			t.Fatalf("set %d: deli tracks invalid way %d", set.Index(), w)
		}
	}
	// Every valid line must be tracked by exactly one list.
	for w := range set.Lines {
		if set.Valid(w) && seen[w] == "" {
			t.Fatalf("set %d: valid way %d untracked", set.Index(), w)
		}
	}
}

// TestNUcacheStructuralInvariantsUnderRandomTraffic hammers the policy
// with adversarial traffic across epochs (including empty-chosen fallback
// transitions) and re-verifies the set invariants continuously.
func TestNUcacheStructuralInvariantsUnderRandomTraffic(t *testing.T) {
	const sets, ways = 8, 8
	p := MustNew(Config{
		Ways:        ways,
		DeliWays:    3,
		Candidates:  8,
		EpochMisses: 700, // frequent epochs: many chosen-set flips
		SampleShift: 0,
	})
	c := cache.New(cache.Config{
		Name: "inv", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64,
	}, p)

	rng := stats.NewRNG(7)
	for i := 0; i < 250000; i++ {
		var addr uint64
		pc := uint64(0x400000)
		switch rng.Intn(4) {
		case 0: // protectable hot loop
			addr = uint64(rng.Intn(3*sets)) * 64
			pc += 4
		case 1: // medium loop
			addr = uint64(rng.Intn(12*sets)) * 64
			pc += 8
		case 2: // stream
			addr = 1<<30 + uint64(i)*64
			pc += 12
		default: // occasional random
			addr = rng.Uint64n(1<<20) &^ 63
			pc += 16
		}
		c.Access(&cache.Request{Addr: addr, PC: pc, Kind: trace.Load})
		if i%1024 == 0 {
			for s := 0; s < c.NumSets(); s++ {
				checkSetInvariants(t, p, c.Set(s))
			}
		}
	}
	if p.Epochs < 10 {
		t.Fatalf("only %d epochs: traffic did not exercise selection flips", p.Epochs)
	}
	for s := 0; s < c.NumSets(); s++ {
		checkSetInvariants(t, p, c.Set(s))
	}
}

// TestAdoptDeliWaysOrdering verifies the epoch-boundary adoption puts the
// oldest retained line at the LRU end.
func TestAdoptDeliWaysOrdering(t *testing.T) {
	p := MustNew(Config{Ways: 8, DeliWays: 3})
	p.Init(1)
	st := &p.sets[0]
	st.main.PushFront(0)
	st.deli.PushBack(5) // oldest
	st.deli.PushBack(6)
	st.deli.PushBack(7) // newest
	p.adoptDeliWays()
	if st.deli.Len() != 0 {
		t.Fatal("deli not drained")
	}
	// Expected main order (front=MRU): 0, 7, 6, 5.
	want := []int{0, 7, 6, 5}
	if st.main.Len() != len(want) {
		t.Fatalf("main len %d", st.main.Len())
	}
	for i, w := range want {
		if st.main.At(i) != w {
			t.Fatalf("main[%d] = %d, want %d", i, st.main.At(i), w)
		}
	}
}
