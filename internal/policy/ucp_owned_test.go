package policy

import (
	"math/rand"
	"testing"

	"nucache/internal/cache"
)

// TestUCPOwnedMatchesLines pins UCP's per-set owner counts, which fills
// raise and Victim lowers for each valid line it evicts, against a scan
// of the set's valid lines, under four cores' random traffic.
func TestUCPOwnedMatchesLines(t *testing.T) {
	const sets, ways, cores = 8, 8, 4
	u := NewUCPWithEpoch(cores, ways, 500)
	c := cache.New(cache.Config{
		Name: "own", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64, Cores: cores,
	}, u)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		core := rng.Intn(cores)
		addr := uint64(rng.Intn(16*sets*(core+1))) * 64
		c.Access(&cache.Request{Addr: addr, Core: core})
		if i%499 != 0 {
			continue
		}
		for s := 0; s < c.NumSets(); s++ {
			set := c.Set(s)
			var want [cache.MaxWays]uint8
			for w := range set.Lines {
				if set.Valid(w) {
					want[clampCore(int(set.Lines[w].Core), cores)]++
				}
			}
			if got := u.sets[s].owned; got != want {
				t.Fatalf("access %d set %d: owned %v, lines %v", i, s, got[:cores], want[:cores])
			}
		}
	}
}
