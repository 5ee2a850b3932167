package policy

import (
	"nucache/internal/cache"
	"nucache/internal/stats"
)

// Random replacement: victims are chosen uniformly at random. It is the
// cheapest hardware policy and a useful sanity baseline.
type Random struct {
	rng *stats.RNG
}

// NewRandom returns a Random policy with a deterministic stream.
func NewRandom(seed uint64) *Random {
	return &Random{rng: stats.NewRNG(seed)}
}

// Name implements cache.Policy.
func (*Random) Name() string { return "Random" }

// Init implements cache.Policy: Random keeps no per-set state.
func (*Random) Init(int) {}

// OnHit implements cache.Policy.
func (*Random) OnHit(*cache.Set, int, *cache.Request) {}

// Victim implements cache.Policy.
func (r *Random) Victim(set *cache.Set, _ *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	return r.rng.Intn(len(set.Lines))
}

// OnInsert implements cache.Policy.
func (*Random) OnInsert(*cache.Set, int, *cache.Request) {}
