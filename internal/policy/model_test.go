package policy_test

import (
	"runtime/debug"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/stats"
	"nucache/internal/trace"
)

// refLRU is an executable-specification LRU cache: per-set ordered slices
// of line addresses, MRU first. The real cache+policy must agree with it
// access-for-access.
type refLRU struct {
	sets  [][]uint64
	ways  int
	shift uint
	mask  uint64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{
		sets: make([][]uint64, sets),
		ways: ways, shift: 6, mask: uint64(sets - 1),
	}
}

func (r *refLRU) access(addr uint64) bool {
	line := addr >> r.shift
	idx := int((line) & r.mask)
	s := r.sets[idx]
	for i, l := range s {
		if l == line {
			copy(s[1:i+1], s[:i])
			s[0] = line
			return true
		}
	}
	if len(s) < r.ways {
		s = append(s, 0)
	}
	copy(s[1:], s)
	s[0] = line
	r.sets[idx] = s
	return false
}

func TestLRUAgreesWithReferenceModel(t *testing.T) {
	const sets, ways = 16, 4
	c := cache.New(cache.Config{
		Name: "m", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64,
	}, policy.NewLRU())
	ref := newRefLRU(sets, ways)
	rng := stats.NewRNG(123)
	for i := 0; i < 200000; i++ {
		// Mix of hot region, scans and random addresses.
		var addr uint64
		switch rng.Intn(3) {
		case 0:
			addr = uint64(rng.Intn(32)) * 64
		case 1:
			addr = uint64(i%4096) * 64
		default:
			addr = rng.Uint64n(1<<20) &^ 63
		}
		got := c.Access(&cache.Request{Addr: addr, Kind: trace.Load}).Hit
		want := ref.access(addr)
		if got != want {
			t.Fatalf("access %d addr %#x: cache hit=%v, model hit=%v", i, addr, got, want)
		}
	}
}

// TestPoliciesNeverCorruptOccupancy hammers every catalog policy, plus
// OracleRetention and short-epoch UCP and PIPP, with adversarial traffic
// at every associativity the cache accepts, and checks the invariants
// the cache must keep: every way fills and is evicted, no set holds a
// tag twice, and the statistics add up. The 8-way run is the long one.
func TestPoliciesNeverCorruptOccupancy(t *testing.T) {
	type build func(cores, ways int) (cache.Policy, error)
	builders := map[string]build{
		"OracleNU": func(_, ways int) (cache.Policy, error) {
			// A nil next-use chain retains nothing, so DeliWays would
			// never fill: every way is a MainWay.
			return policy.NewOracleRetention(ways, 0, 1000, nil), nil
		},
		// Short repartitioning epochs flip the way quotas many times.
		"UCP-epoch777": func(cores, ways int) (cache.Policy, error) {
			return policy.NewUCPWithEpoch(cores, ways, 777), nil
		},
		"PIPP-epoch777": func(cores, ways int) (cache.Policy, error) {
			return policy.NewPIPPWithEpoch(cores, ways, 6, 777), nil
		},
	}
	for _, name := range sim.Policies() {
		builders[name] = func(cores, ways int) (cache.Policy, error) {
			return sim.BuildPolicy(name, cores, ways, min(core.DefaultDeliWays, ways-1))
		}
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			for ways := 1; ways <= cache.MaxWays; ways++ {
				cores := min(ways, 4)
				p, err := mk(cores, ways)
				if err != nil {
					if name == "SLRU" && ways == 1 {
						continue // SLRU needs a protected and a probationary way
					}
					t.Fatalf("%d ways: %v", ways, err)
				}
				accesses := 3_000 * ways
				if ways == 8 {
					accesses = 100_000
				}
				hammer(t, p, ways, cores, accesses)
			}
		})
	}
}

// hammerSets is the set count of every cache hammer and
// TestPolicyDecisionsPinned build.
const hammerSets = 16

// hammerTraffic returns hammer's adversarial request stream: accesses
// requests from cores cores, mixing per-core hot regions, shared-set
// conflicts, streams and random lines, 30% of them stores.
func hammerTraffic(cores, accesses int) []cache.Request {
	rng := stats.NewRNG(99)
	reqs := make([]cache.Request, accesses)
	for i := range reqs {
		core := rng.Intn(cores)
		var addr uint64
		switch rng.Intn(4) {
		case 0: // per-core hot region
			addr = uint64(core)<<40 | uint64(rng.Intn(256))*64
		case 1: // shared-set conflict traffic
			addr = uint64(core)<<40 | uint64(rng.Intn(8))*hammerSets*64
		case 2: // stream
			addr = uint64(core)<<40 | uint64(i)*64
		default:
			addr = uint64(core)<<40 | rng.Uint64n(1<<22)&^63
		}
		kind := trace.Load
		if rng.Bool(0.3) {
			kind = trace.Store
		}
		reqs[i] = cache.Request{Addr: addr, PC: uint64(i % 13), Core: core, Kind: kind}
	}
	return reqs
}

// hammerCache builds the 16-set cache of the given associativity that
// hammer and TestPolicyDecisionsPinned run p in.
func hammerCache(p cache.Policy, ways, cores int) *cache.Cache {
	return cache.New(cache.Config{
		Name: p.Name(), SizeBytes: hammerSets * ways * 64, Ways: ways,
		LineBytes: 64, Cores: cores,
	}, p)
}

// hammer runs accesses requests from cores cores through a 16-set cache
// of the given associativity under p and checks its invariants. Fewer
// than about 3,000 accesses per way can leave a line PIPP keeps
// promoting in its way for the whole run.
func hammer(t *testing.T, p cache.Policy, ways, cores, accesses int) {
	t.Helper()
	c := hammerCache(p, ways, cores)
	var hits uint64
	evicted := make([]bool, ways) // some set evicted a line from way w
	for _, req := range hammerTraffic(cores, accesses) {
		r := c.Access(&req)
		if r.Hit {
			hits++
		} else if r.EvictedValid() {
			evicted[c.Set(c.SetIndex(req.Addr)).Lookup(c.Tag(req.Addr))] = true
		}
	}
	if got := c.Occupancy(); got != hammerSets*ways {
		t.Fatalf("%d ways: occupancy %d, want a full cache of %d lines", ways, got, hammerSets*ways)
	}
	for w, ok := range evicted {
		if !ok {
			t.Fatalf("%d ways: no line was ever evicted from way %d", ways, w)
		}
	}
	// Structural duplicate check: no tag may appear twice in a set.
	for s := 0; s < c.NumSets(); s++ {
		set := c.Set(s)
		seen := map[uint64]bool{}
		for w := range set.Lines {
			if !set.Valid(w) {
				continue
			}
			if seen[set.Tag(w)] {
				t.Fatalf("%d ways: set %d holds tag %#x twice", ways, s, set.Tag(w))
			}
			seen[set.Tag(w)] = true
		}
	}
	if st := c.Stats; st.Hits+st.Misses != st.Accesses {
		t.Fatalf("%d ways: stats inconsistent: %+v", ways, st)
	}
	if hits != c.Stats.Hits {
		t.Fatalf("%d ways: observed hits %d != stats hits %d", ways, hits, c.Stats.Hits)
	}
}

// TestLLCConstructionAllocsFlat: building an LLC under each lineup
// policy at 8 cores, and under Part at 4 (one recency list per set and
// core), allocates as many objects at 1 MB as at 4 MB. Policies keep
// their per-set state in one slice each, never an object per set. The
// collector is off while counting: a cycle's own background allocations
// would otherwise land in the count of whichever build triggered it.
func TestLLCConstructionAllocsFlat(t *testing.T) {
	const ways = 16
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type build struct {
		name  string
		cores int
	}
	var builds []build
	for _, name := range sim.Lineup() {
		builds = append(builds, build{name, 8})
	}
	builds = append(builds, build{"Part", 4})
	for _, b := range builds {
		allocs := func(size int) float64 {
			return testing.AllocsPerRun(2, func() {
				p, err := sim.BuildPolicy(b.name, b.cores, ways, core.DefaultDeliWays)
				if err != nil {
					t.Fatal(err)
				}
				cache.New(cache.Config{Name: "LLC", SizeBytes: size, Ways: ways, LineBytes: 64, Cores: b.cores}, p)
			})
		}
		if small, large := allocs(1<<20), allocs(4<<20); small != large {
			t.Errorf("%s at %d cores: building a 1 MB LLC allocates %.0f objects, a 4 MB one %.0f", b.name, b.cores, small, large)
		}
	}
}
