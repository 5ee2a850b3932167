package policy_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/policy"
	"nucache/internal/sim"
)

// pinnedDecisions is, per policy, the sha256 of every access's decision
// (hit, the way the line resides in afterwards, the evicted tag) over
// hammer's traffic at every associativity from 1 to cache.MaxWays.
var pinnedDecisions = map[string]string{
	"DIP":             "7a6fcb97c15876bc7b8857c5532ce916e54b9e7679ac6e61178592779738b719",
	"DRRIP":           "000278bf82aebe775cd68a7e62d0d37360259cf4aa06ec4864347ef494489b3b",
	"Hawkeye":         "c4108f8967bfd18f733ac20da4a1834ab65ac470073b395c1377687629e030a0",
	"LRU":             "b21f6a48f52bb35f45c8155b98336835fd0d7baace304a6a1eb765e05a30ba92",
	"NRU":             "46532aa442755465fd30fde344a489987aaf473efbfb78dbbb5f3101168ddff2",
	"NUcache":         "fb5f37e80eb968fe18919538ee745a5a0101d3b4f39b26adac3c7a8cd54f6f6e",
	"NUcache-sampled": "79932ddc06fe2e192cc8e2dba6910f4fae6911df33fcfe2c599297031661f6ec",
	"OracleNU":        "ab4c82a67116562ca7c43c6ee32483de60b739b3072db7cadc3ce2e1f88e0b10",
	"PIPP":            "835fa5d1282b670327fe562a70905db64fe160ea9b3ee75d29e36f302b5afeec",
	"PIPP-epoch777":   "dc96d440909d0b24ad466bedc31993a547f53199ec532deebfd2147613faf171",
	"Part":            "5b8de236ab7774d14221edace6517ef61a0f323d05340f778c268620273ecf1d",
	"Random":          "f3cf2dbbd717ad7f24d9bcf20e501c8e42277f600a7085de5e79c04bef8fa6b0",
	"SHiP":            "af41a2c587f85ff426f1640343dd3d4a3587e5d1f5f06ae7641f51da30664a97",
	"SLRU":            "13a4a5465918a24c99ab1bafd5474e2514157896ebe3ca327bb0bc9499c7e227",
	"SRRIP":           "c21a99d7fe99e0a804a177905968b41ab80510a78d98d164104683b5f8b2caca",
	"TADIP":           "81ca91f2d0d6bc49942ab7cff7efd52fab319c7c717694fcd0b61907d4b09ab4",
	"UCP":             "4905d8513c1cee5cde53d7b8b7a96a56c0631b72ef83b88ff31c5c583f2c3103",
	"UCP-epoch777":    "7f9bc9353ca373ab537216461ccb5b47bfcdd1b63d47f7f86582ae34e574fb45",
}

// TestPolicyDecisionsPinned pins what every policy decides, not only the
// invariants TestPoliciesNeverCorruptOccupancy checks: the goldens run
// only 16-way LLCs, so a change to a policy's recency bookkeeping that
// picks another victim at some narrower associativity shows here first.
// It covers every catalog policy, OracleRetention over the traffic's
// real next-use chain, short-epoch UCP and PIPP, and a NUcache whose
// every set samples and whose epochs are short.
func TestPolicyDecisionsPinned(t *testing.T) {
	type build func(cores, ways int, reqs []cache.Request) (cache.Policy, error)
	deli := func(ways int) int { return min(core.DefaultDeliWays, ways-1) }
	builders := map[string]build{
		"OracleNU": func(_, ways int, reqs []cache.Request) (cache.Policy, error) {
			lines := make([]uint64, len(reqs))
			for i, r := range reqs {
				lines[i] = r.Addr >> 6
			}
			d := deli(ways)
			return policy.NewOracleRetention(ways-d, d, 2000, policy.NextUseChain(lines)), nil
		},
		"UCP-epoch777": func(cores, ways int, _ []cache.Request) (cache.Policy, error) {
			return policy.NewUCPWithEpoch(cores, ways, 777), nil
		},
		"PIPP-epoch777": func(cores, ways int, _ []cache.Request) (cache.Policy, error) {
			return policy.NewPIPPWithEpoch(cores, ways, 6, 777), nil
		},
		"NUcache-sampled": func(_, ways int, _ []cache.Request) (cache.Policy, error) {
			cfg := core.DefaultConfig(ways)
			cfg.DeliWays = deli(ways)
			cfg.Candidates, cfg.EpochMisses, cfg.SampleShift = 8, 700, 0
			return core.New(cfg)
		},
	}
	for _, name := range sim.Policies() {
		builders[name] = func(cores, ways int, _ []cache.Request) (cache.Policy, error) {
			return sim.BuildPolicy(name, cores, ways, deli(ways))
		}
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			h := sha256.New()
			var rec [17]byte
			for ways := 1; ways <= cache.MaxWays; ways++ {
				cores := min(ways, 4)
				reqs := hammerTraffic(cores, 3_000*ways)
				p, err := mk(cores, ways, reqs)
				if err != nil {
					if name == "SLRU" && ways == 1 {
						continue // SLRU needs a protected and a probationary way
					}
					t.Fatalf("%d ways: %v", ways, err)
				}
				c := hammerCache(p, ways, cores)
				for _, req := range reqs {
					r := c.Access(&req)
					rec[0] = 0
					if r.Hit {
						rec[0] = 1
					}
					way := c.Set(c.SetIndex(req.Addr)).Lookup(c.Tag(req.Addr))
					binary.LittleEndian.PutUint64(rec[1:], uint64(way))
					binary.LittleEndian.PutUint64(rec[9:], r.EvictedTag)
					h.Write(rec[:])
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want, ok := pinnedDecisions[name]; !ok || got != want {
				t.Errorf("decisions digest %s, pinned %q", got, want)
			}
		})
	}
}
