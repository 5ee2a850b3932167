package policy

// UMON is a utility monitor (Qureshi & Patt, MICRO 2006, "UMON-DSS"):
// an auxiliary tag directory (ATD) with the cache's associativity, kept on
// a sampled subset of sets and managed pure-LRU, counting hits per LRU
// stack position. The cumulative hit counts over positions give the
// utility curve U(a) = hits the monitored core would see with a ways.
//
// The MRC profiler uses the same monitor unsampled (NewUMON(ways, 0)):
// where UCP samples sets to stay hardware-cheap, the profiler wants the
// exact hit count at every allocation, so it shadows the whole cache.
type UMON struct {
	ways        int
	sampleShift uint
	sets        []umonSet // sampled set i lives at index i>>sampleShift
	hits        []uint64
	demandHits  []uint64 // demand-only hit curve
	misses      uint64
	accesses    uint64
}

type umonSet struct {
	tags []uint64 // MRU first; cap fixed at ways once allocated
	pcs  []uint64 // parallel fill PCs
}

// NewUMON returns a monitor with the given associativity, sampling one in
// 1<<sampleShift sets.
func NewUMON(ways int, sampleShift uint) *UMON {
	if ways <= 0 {
		panic("policy: UMON with non-positive ways")
	}
	curves := make([]uint64, 2*ways) // hits, then demandHits
	return &UMON{
		ways:        ways,
		sampleShift: sampleShift,
		hits:        curves[:ways:ways],
		demandHits:  curves[ways:],
	}
}

// Sampled reports whether setIndex is monitored.
func (u *UMON) Sampled(setIndex int) bool {
	return setIndex&((1<<u.sampleShift)-1) == 0
}

// Access feeds one demand access; accesses to unsampled sets are ignored.
func (u *UMON) Access(setIndex int, tag uint64) {
	if u.Sampled(setIndex) {
		u.AccessProfiled(setIndex, tag, 0, true)
	}
}

// AccessProfiled feeds one access to a sampled set with its fill PC,
// distinguishing demand accesses from prefetch/writeback traffic. It
// returns the LRU stack position hit (-1 on miss) and, when the ATD was
// full, the tag and fill PC of the line pushed off the stack — the
// profiler's demotion signal.
func (u *UMON) AccessProfiled(setIndex int, tag, pc uint64, demand bool) (pos int, evTag, evPC uint64, evicted bool) {
	u.accesses++
	// Dense sampled-set index: allocation-free once every sampled set has
	// been touched (ATD tags are preallocated at full associativity).
	i := setIndex >> u.sampleShift
	for len(u.sets) <= i {
		u.sets = append(u.sets, umonSet{})
	}
	s := &u.sets[i]
	if s.tags == nil {
		buf := make([]uint64, 2*u.ways) // one allocation for both
		s.tags, s.pcs = buf[:0:u.ways], buf[u.ways:u.ways]
	}
	for j, t := range s.tags {
		if t == tag {
			u.hits[j]++
			if demand {
				u.demandHits[j]++
			}
			copy(s.tags[1:], s.tags[:j])
			copy(s.pcs[1:], s.pcs[:j])
			s.tags[0] = tag
			s.pcs[0] = pc
			return j, 0, 0, false
		}
	}
	u.misses++
	if len(s.tags) < u.ways {
		s.tags = append(s.tags, 0)
		s.pcs = append(s.pcs, 0)
	} else {
		evTag, evPC, evicted = s.tags[u.ways-1], s.pcs[u.ways-1], true
	}
	copy(s.tags[1:], s.tags)
	copy(s.pcs[1:], s.pcs)
	s.tags[0] = tag
	s.pcs[0] = pc
	return -1, evTag, evPC, evicted
}

// Hits returns a copy of the per-stack-position hit counts.
func (u *UMON) Hits() []uint64 { return append([]uint64(nil), u.hits...) }

// DemandHits returns a copy of the demand-only per-position hit counts.
func (u *UMON) DemandHits() []uint64 { return append([]uint64(nil), u.demandHits...) }

// Utility returns the cumulative hits the core would get with a ways
// (a clamped to [0, ways]).
func (u *UMON) Utility(a int) uint64 {
	if a > u.ways {
		a = u.ways
	}
	var sum uint64
	for i := 0; i < a; i++ {
		sum += u.hits[i]
	}
	return sum
}

// Accesses returns the number of monitored accesses this epoch.
func (u *UMON) Accesses() uint64 { return u.accesses }

// Misses returns the number of monitored misses this epoch.
func (u *UMON) Misses() uint64 { return u.misses }

// Reset halves all counters, aging history so the monitor adapts to phase
// changes without forgetting everything (as in the hardware proposal).
func (u *UMON) Reset() {
	for i := range u.hits {
		u.hits[i] /= 2
	}
	u.misses /= 2
	u.accesses /= 2
}

// LookaheadPartition runs UCP's lookahead algorithm: allocate totalWays
// among the monitors, each core receiving at least one way, greedily
// maximizing marginal utility per way.
func LookaheadPartition(umons []*UMON, totalWays int) []int {
	n := len(umons)
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = 1
	}
	balance := totalWays - n
	if balance < 0 {
		panic("policy: lookahead with fewer ways than cores")
	}
	for balance > 0 {
		bestCore, bestK := -1, 0
		bestMU := -1.0
		for i, u := range umons {
			maxK := u.ways - alloc[i]
			if maxK > balance {
				maxK = balance
			}
			base := u.Utility(alloc[i])
			for k := 1; k <= maxK; k++ {
				mu := float64(u.Utility(alloc[i]+k)-base) / float64(k)
				if mu > bestMU {
					bestMU, bestCore, bestK = mu, i, k
				}
			}
		}
		if bestCore < 0 || bestMU <= 0 {
			// No marginal utility anywhere: spread the remainder evenly
			// so capacity is never wasted.
			for i := 0; balance > 0; i = (i + 1) % n {
				if alloc[i] < umons[i].ways {
					alloc[i]++
					balance--
				}
			}
			break
		}
		alloc[bestCore] += bestK
		balance -= bestK
	}
	return alloc
}

// partitioner is the UMON-driven way partitioning UCP and PIPP share: one
// sampled UMON per core, and every epochAccesses LLC accesses UCP's
// lookahead re-divides the ways from the monitors' utility curves.
type partitioner struct {
	cores int
	ways  int
	umons []*UMON
	alloc []int // current per-core way quotas; starts as EvenSplit

	epochAccesses uint64 // repartition period, in LLC accesses
	sinceRepart   uint64

	// Repartitions counts completed epochs (exposed for tests/reports).
	Repartitions int
}

func newPartitioner(name string, cores, ways int) partitioner {
	if cores <= 0 || ways < cores {
		panic("policy: " + name + " needs ways >= cores >= 1")
	}
	p := partitioner{
		cores:         cores,
		ways:          ways,
		umons:         make([]*UMON, cores),
		alloc:         EvenSplit(cores, ways),
		epochAccesses: 500_000,
	}
	for i := range p.umons {
		p.umons[i] = NewUMON(ways, 5) // 1-in-32 set sampling
	}
	return p
}

// Allocations returns the current per-core way quotas.
func (p *partitioner) Allocations() []int { return append([]int(nil), p.alloc...) }

// observe feeds the access to core's UMON and reports whether it closed
// the epoch; the caller then reads the monitors and calls repartition.
func (p *partitioner) observe(setIndex int, tag uint64, core int) bool {
	p.umons[core].Access(setIndex, tag)
	p.sinceRepart++
	return p.sinceRepart >= p.epochAccesses
}

// repartition re-divides the ways and ages every monitor.
func (p *partitioner) repartition() {
	p.sinceRepart = 0
	p.alloc = LookaheadPartition(p.umons, p.ways)
	for _, m := range p.umons {
		m.Reset()
	}
	p.Repartitions++
}

// clampCore maps a request's core to a per-core index in [0, cores);
// anything outside (no owning core) counts as core 0.
func clampCore(c, cores int) int {
	if c < 0 || c >= cores {
		return 0
	}
	return c
}
