package policy

import "nucache/internal/cache"

// Hawkeye (Jain & Lin, ISCA 2016, simplified): learn from what Belady's
// OPT *would have done*. Sampled sets replay their recent access history
// through OPTgen — an occupancy-vector structure that decides, for each
// re-use interval, whether OPT would have kept the line. The verdict
// trains a PC-indexed predictor; fills predicted cache-friendly insert
// with high priority, averse fills insert dead. Victims prefer averse
// lines, then the oldest friendly line.
//
// Hawkeye postdates NUcache by five years; it is included as the
// strongest PC-based comparison point for the E19 extended lineup.
type Hawkeye struct {
	ways    int
	predict []int8 // 3-bit saturating counters, PC-hashed
	samples map[int]*optgenSet
	mask    uint64 // sampled-set mask

	clock uint64 // global timestamp for aging
}

const (
	hawkPredSize  = 8 << 10
	hawkPredMax   = 3
	hawkPredMin   = -4
	hawkHistory   = 8 // OPTgen window, in multiples of associativity
	hawkSampleBit = 5 // sample 1 in 32 sets
)

// optgenSet holds one sampled set's access history and occupancy vector.
type optgenSet struct {
	// ring of the last hawkHistory*ways accesses: tag, pc, the occupancy
	// count at that time slot, and whether the access was ever re-used.
	tags  []uint64
	pcs   []uint64
	occ   []uint8
	used  []bool
	valid []bool
	head  int
}

// NewHawkeye returns the policy for the given associativity.
func NewHawkeye(ways int) *Hawkeye {
	if ways <= 0 {
		panic("policy: Hawkeye needs positive ways")
	}
	return &Hawkeye{
		ways:    ways,
		predict: make([]int8, hawkPredSize),
		samples: make(map[int]*optgenSet),
		mask:    (1 << hawkSampleBit) - 1,
	}
}

// Name implements cache.Policy.
func (*Hawkeye) Name() string { return "Hawkeye" }

// Init implements cache.Policy: Hawkeye's per-set state is its OPTgen
// sampler, built on first access for the sampled sets only.
func (*Hawkeye) Init(int) {}

func (*Hawkeye) hash(pc uint64) uint64 {
	return (pc * 0x9e3779b97f4a7c15 >> 17) % hawkPredSize
}

func (h *Hawkeye) friendly(pc uint64) bool {
	return h.predict[h.hash(pc)] >= 0
}

func (h *Hawkeye) train(pc uint64, up bool) {
	i := h.hash(pc)
	if up {
		if h.predict[i] < hawkPredMax {
			h.predict[i]++
		}
	} else if h.predict[i] > hawkPredMin {
		h.predict[i]--
	}
}

// ObserveAccess implements cache.AccessObserver: OPTgen on sampled sets.
func (h *Hawkeye) ObserveAccess(setIndex int, tag uint64, req *cache.Request) {
	if uint64(setIndex)&h.mask != 0 {
		return
	}
	s := h.samples[setIndex]
	if s == nil {
		n := hawkHistory * h.ways
		s = &optgenSet{
			tags:  make([]uint64, n),
			pcs:   make([]uint64, n),
			occ:   make([]uint8, n),
			used:  make([]bool, n),
			valid: make([]bool, n),
		}
		h.samples[setIndex] = s
	}
	// Search backwards for the previous access to this tag. If found,
	// ask OPTgen: would every time slot in the interval have had spare
	// capacity? If yes, OPT keeps the line (train the *previous* PC up)
	// and the interval's occupancy increases; if no, OPT evicts (train
	// down).
	n := len(s.tags)
	found := -1
	for back := 1; back < n; back++ {
		i := (s.head - back + n) % n
		if s.valid[i] && s.tags[i] == tag {
			found = i
			break
		}
	}
	if found >= 0 {
		fits := true
		for i := found; i != s.head; i = (i + 1) % n {
			if int(s.occ[i]) >= h.ways {
				fits = false
				break
			}
		}
		if fits {
			for i := found; i != s.head; i = (i + 1) % n {
				s.occ[i]++
			}
		}
		s.used[found] = true
		h.train(s.pcs[found], fits)
	}
	// The slot rotating out belonged to an access never re-used within
	// the whole window: OPT would not have kept it — train down.
	if s.valid[s.head] && !s.used[s.head] {
		h.train(s.pcs[s.head], false)
	}
	s.tags[s.head] = tag
	s.pcs[s.head] = req.PC
	s.occ[s.head] = 0
	s.used[s.head] = false
	s.valid[s.head] = true
	s.head = (s.head + 1) % n
}

// OnHit implements cache.Policy.
func (h *Hawkeye) OnHit(set *cache.Set, way int, req *cache.Request) {
	h.clock++
	if h.friendly(req.PC) {
		set.Lines[way].Meta = h.clock<<1 | 1 // friendly, fresh
	} else {
		set.Lines[way].Meta = h.clock << 1 // averse
	}
}

// Victim implements cache.Policy: averse lines first, else the oldest
// friendly line (Belady-inspired: oldest ≈ farthest re-use among
// friendly lines).
func (h *Hawkeye) Victim(set *cache.Set, _ *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	oldest, oldestClock := -1, ^uint64(0)
	for i := range set.Lines {
		meta := set.Lines[i].Meta
		if meta&1 == 0 {
			return i // averse: evict immediately
		}
		if ts := meta >> 1; ts < oldestClock {
			oldest, oldestClock = i, ts
		}
	}
	return oldest
}

// OnInsert implements cache.Policy.
func (h *Hawkeye) OnInsert(set *cache.Set, way int, req *cache.Request) {
	h.clock++
	if h.friendly(req.PC) {
		set.Lines[way].Meta = h.clock<<1 | 1
	} else {
		set.Lines[way].Meta = h.clock << 1
	}
}
