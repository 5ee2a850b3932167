package policy

import "nucache/internal/cache"

// NRU is not-recently-used replacement: each line carries one reference
// bit (stored in Line.Meta); hits set it; the victim is the first line
// with a clear bit, and when all bits are set they are cleared (except
// the just-used line's).
type NRU struct{}

// NewNRU returns an NRU policy.
func NewNRU() *NRU { return &NRU{} }

// Name implements cache.Policy.
func (*NRU) Name() string { return "NRU" }

// Init implements cache.Policy: NRU keeps no per-set state.
func (*NRU) Init(int) {}

// OnHit implements cache.Policy.
func (*NRU) OnHit(set *cache.Set, way int, _ *cache.Request) {
	set.Lines[way].Meta = 1
	n := 0
	for i := range set.Lines {
		if set.Lines[i].Meta != 0 {
			n++
		}
	}
	if n == len(set.Lines) {
		for i := range set.Lines {
			if i != way {
				set.Lines[i].Meta = 0
			}
		}
	}
}

// Victim implements cache.Policy.
func (*NRU) Victim(set *cache.Set, _ *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	for i := range set.Lines {
		if set.Lines[i].Meta == 0 {
			return i
		}
	}
	// All referenced: clear and evict way 0.
	for i := range set.Lines {
		set.Lines[i].Meta = 0
	}
	return 0
}

// OnInsert implements cache.Policy.
func (*NRU) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	set.Lines[way].Meta = 1
}
