package policy_test

import (
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
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

// TestPoliciesNeverCorruptOccupancy hammers every policy with adversarial
// traffic and checks structural invariants the cache must keep.
func TestPoliciesNeverCorruptOccupancy(t *testing.T) {
	mk := map[string]func() cache.Policy{
		"LRU":    func() cache.Policy { return policy.NewLRU() },
		"Random": func() cache.Policy { return policy.NewRandom(1) },
		"NRU":    func() cache.Policy { return policy.NewNRU() },
		"SRRIP":  func() cache.Policy { return policy.NewSRRIP() },
		"DRRIP":  func() cache.Policy { return policy.NewDRRIP(3) },
		"DIP":    func() cache.Policy { return policy.NewDIP(4) },
		"TADIP":  func() cache.Policy { return policy.NewTADIP(4, 5) },
		"UCP":    func() cache.Policy { return policy.NewUCP(4, 8, policy.WithUCPEpoch(777)) },
		"PIPP":   func() cache.Policy { return policy.NewPIPP(4, 8, 6, policy.WithPIPPEpoch(777)) },
	}
	for name, factory := range mk {
		t.Run(name, func(t *testing.T) {
			const sets, ways = 64, 8
			c := cache.New(cache.Config{
				Name: name, SizeBytes: sets * ways * 64, Ways: ways,
				LineBytes: 64, Cores: 4,
			}, factory())
			rng := stats.NewRNG(99)
			var hits uint64
			for i := 0; i < 300000; i++ {
				core := rng.Intn(4)
				var addr uint64
				switch rng.Intn(4) {
				case 0: // per-core hot region
					addr = uint64(core)<<40 | uint64(rng.Intn(256))*64
				case 1: // shared-set conflict traffic
					addr = uint64(core)<<40 | uint64(rng.Intn(8))*uint64(sets)*64
				case 2: // stream
					addr = uint64(core)<<40 | uint64(i)*64
				default:
					addr = uint64(core)<<40 | rng.Uint64n(1<<22)&^63
				}
				kind := trace.Load
				if rng.Bool(0.3) {
					kind = trace.Store
				}
				r := c.Access(&cache.Request{Addr: addr, PC: uint64(i % 13), Core: core, Kind: kind})
				if r.Hit {
					hits++
				}
			}
			if c.Occupancy() > sets*ways {
				t.Fatalf("occupancy %d exceeds capacity", c.Occupancy())
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
						t.Fatalf("set %d holds tag %#x twice", s, set.Tag(w))
					}
					seen[set.Tag(w)] = true
				}
			}
			if st := c.Stats; st.Hits+st.Misses != st.Accesses {
				t.Fatalf("stats inconsistent: %+v", st)
			}
			if hits != c.Stats.Hits {
				t.Fatalf("observed hits %d != stats hits %d", hits, c.Stats.Hits)
			}
		})
	}
}
