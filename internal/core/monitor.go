package core

import (
	"sort"

	"nucache/internal/stats"
)

// Monitor is the Next-Use monitor: on sampled sets it tracks a per-set
// miss counter and a small FIFO victim table of lines that left the
// MainWays. When a later access to a sampled set matches a victim-table
// entry, the elapsed per-set miss count — the *next-use distance* of that
// line, relative to its MainWays exit — is recorded into the filling PC's
// histogram. The monitor also ranks PCs by total misses (delinquency).
//
// The monitor sits on the simulator's per-access path, so its data
// structures are chosen for allocation-free steady-state operation: a
// dense slice of sampled-set states (indexed by setIndex>>SampleShift)
// instead of a map, an open-addressed PC index over a slice of per-epoch
// PCStats instead of a map, and fixed-capacity victim tables that shift
// in place instead of re-slicing their backing array away.
type Monitor struct {
	sampleMask  uint64
	sampleShift uint

	sets []monitorSet // sampled set i lives at index i>>sampleShift
	pcs  []*PCStats   // this epoch's PCs, in first-miss order
	idx  pcIndex      // PC -> position in pcs

	// epoch accumulators
	sampledMisses uint64

	// lifetime counters (never reset; for reports)
	Reuses        uint64 // victim-table matches recorded
	TableOverflow uint64 // entries dropped before any reuse was seen
}

type victimEntry struct {
	tag    uint64
	pc     uint64
	missAt uint64
}

type monitorSet struct {
	missCount uint64
	victims   []victimEntry // cap fixed at VictimTableCap once allocated
}

// PCStats aggregates one PC's monitored behaviour within an epoch.
type PCStats struct {
	// PC is the (core-tagged) instruction address.
	PC uint64
	// Misses counts LLC misses by this PC across all sets this epoch.
	Misses uint64
	// Demotions counts this PC's lines leaving the MainWays in sampled
	// sets this epoch — the rate at which the PC would consume DeliWays.
	Demotions uint64
	// NextUse is the histogram of observed next-use distances (in
	// per-set misses) for this PC's lines.
	NextUse *stats.Histogram
}

// NewMonitor constructs a monitor from the policy configuration.
func NewMonitor(cfg Config) *Monitor {
	m := &Monitor{
		sampleMask:  (1 << cfg.SampleShift) - 1,
		sampleShift: cfg.SampleShift,
	}
	m.idx.init(64)
	return m
}

// set returns the state of a sampled set, growing the dense slice on
// first touch (the simulator's set indices are bounded by the cache
// geometry, so growth stops after the first pass over the sets).
func (m *Monitor) set(setIndex int) *monitorSet {
	i := setIndex >> m.sampleShift
	for len(m.sets) <= i {
		m.sets = append(m.sets, monitorSet{})
	}
	return &m.sets[i]
}

// pc returns the epoch's stats for pc, creating them on first miss.
func (m *Monitor) pc(pc uint64) *PCStats {
	if i := m.idx.get(pc); i >= 0 {
		return m.pcs[i]
	}
	p := &PCStats{PC: pc, NextUse: stats.NewHistogram(HistLinear, HistLog2)}
	m.idx.put(pc, int32(len(m.pcs)))
	m.pcs = append(m.pcs, p)
	return p
}

// lookupPC returns the epoch's stats for pc, or nil (tests, tools).
func (m *Monitor) lookupPC(pc uint64) *PCStats {
	if i := m.idx.get(pc); i >= 0 {
		return m.pcs[i]
	}
	return nil
}

// OnAccess observes every access (hit or miss) to the cache. If the tag
// matches a victim-table entry in a sampled set, the next-use distance is
// recorded and the entry retired. The guard is split from the table scan
// so the non-sampled early-out (63 of 64 accesses) inlines into the
// caller's access loop.
func (m *Monitor) OnAccess(setIndex int, tag uint64) {
	if uint64(setIndex)&m.sampleMask != 0 {
		return
	}
	m.sampledAccess(setIndex, tag)
}

func (m *Monitor) sampledAccess(setIndex int, tag uint64) {
	i := setIndex >> m.sampleShift
	if i >= len(m.sets) {
		return
	}
	s := &m.sets[i]
	for vi := range s.victims {
		if s.victims[vi].tag == tag {
			e := s.victims[vi]
			m.pc(e.pc).NextUse.Record(s.missCount - e.missAt)
			s.victims = append(s.victims[:vi], s.victims[vi+1:]...)
			m.Reuses++
			return
		}
	}
}

// OnMiss observes an LLC miss by pc in setIndex.
func (m *Monitor) OnMiss(setIndex int, pc uint64) {
	// Fast path: the PC has already missed this epoch, so the index hit
	// avoids the allocation branch in pc() entirely.
	if i := m.idx.get(pc); i >= 0 {
		m.pcs[i].Misses++
	} else {
		m.pc(pc).Misses++
	}
	if uint64(setIndex)&m.sampleMask == 0 {
		m.set(setIndex).missCount++
		m.sampledMisses++
	}
}

// OnDemotion observes a line (tag, filled by pc) leaving the MainWays of
// setIndex, whether it is evicted outright or retained in the DeliWays.
// Split like OnAccess so the non-sampled early-out inlines per miss.
func (m *Monitor) OnDemotion(setIndex int, tag, pc uint64) {
	if uint64(setIndex)&m.sampleMask != 0 {
		return
	}
	m.sampledDemotion(setIndex, tag, pc)
}

func (m *Monitor) sampledDemotion(setIndex int, tag, pc uint64) {
	s := m.set(setIndex)
	m.pc(pc).Demotions++
	if s.victims == nil {
		s.victims = make([]victimEntry, 0, VictimTableCap)
	}
	if len(s.victims) >= VictimTableCap {
		// Oldest entry never saw a reuse within the table's window.
		// Shift in place so the append below reuses the backing array.
		copy(s.victims, s.victims[1:])
		s.victims = s.victims[:len(s.victims)-1]
		m.TableOverflow++
	}
	s.victims = append(s.victims, victimEntry{tag: tag, pc: pc, missAt: s.missCount})
}

// SampledMisses returns the number of misses observed at sampled sets
// this epoch.
func (m *Monitor) SampledMisses() uint64 { return m.sampledMisses }

// TopCandidates returns the n most delinquent PCs of the epoch, ordered
// by descending miss count.
func (m *Monitor) TopCandidates(n int) []*PCStats {
	all := make([]*PCStats, 0, len(m.pcs))
	for _, p := range m.pcs {
		if p.Misses > 0 {
			all = append(all, p)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Misses != all[j].Misses {
			return all[i].Misses > all[j].Misses
		}
		return all[i].PC < all[j].PC // deterministic tie-break
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// TotalMisses returns the number of misses recorded across all PCs this
// epoch (used by characterization experiments).
func (m *Monitor) TotalMisses() uint64 {
	var t uint64
	for _, p := range m.pcs {
		t += p.Misses
	}
	return t
}

// EndEpoch clears per-epoch statistics. Victim tables and per-set miss
// counters persist so in-flight distances spanning the boundary remain
// measurable. The PCStats handed out this epoch stay valid (selection
// results and experiment reports hold them across the boundary); only
// the monitor's own index forgets them.
func (m *Monitor) EndEpoch() {
	m.pcs = m.pcs[:0]
	m.idx.reset()
	m.sampledMisses = 0
}

// pcIndex is a linear-probed open-addressed map from PC to a position in
// Monitor.pcs. It replaces a Go map on the per-miss path: lookups are a
// multiplicative hash plus a short probe, and reset is a memclr instead
// of a reallocation.
type pcIndex struct {
	keys []uint64
	vals []int32 // position+1; 0 marks an empty slot
	used int
	mask uint64
}

func (t *pcIndex) init(n int) {
	t.keys = make([]uint64, n)
	t.vals = make([]int32, n)
	t.mask = uint64(n - 1)
	t.used = 0
}

// slot hashes pc to a starting probe position (Fibonacci hashing; the
// high bits of the product are well mixed, so fold them onto the mask).
func (t *pcIndex) slot(pc uint64) uint64 {
	h := pc * 0x9e3779b97f4a7c15
	return (h >> 32) & t.mask
}

// get returns the stored position for pc, or -1.
func (t *pcIndex) get(pc uint64) int32 {
	for i := t.slot(pc); ; i = (i + 1) & t.mask {
		v := t.vals[i]
		if v == 0 {
			return -1
		}
		if t.keys[i] == pc {
			return v - 1
		}
	}
}

// put inserts pc -> pos. pc must not already be present.
func (t *pcIndex) put(pc uint64, pos int32) {
	if 4*(t.used+1) > 3*len(t.keys) {
		t.grow()
	}
	for i := t.slot(pc); ; i = (i + 1) & t.mask {
		if t.vals[i] == 0 {
			t.keys[i] = pc
			t.vals[i] = pos + 1
			t.used++
			return
		}
	}
}

func (t *pcIndex) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(2 * len(oldKeys))
	for i, v := range oldVals {
		if v != 0 {
			t.put(oldKeys[i], v-1)
		}
	}
}

// reset empties the index, keeping its capacity.
func (t *pcIndex) reset() {
	clear(t.vals)
	t.used = 0
}
