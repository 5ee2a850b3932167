package core

import (
	"slices"

	"nucache/internal/cache"
)

// NUcache implements cache.Policy. Each set's ways are logically split
// into MainWays (LRU, all lines) and DeliWays (FIFO, only lines filled by
// chosen delinquent PCs, which enter when evicted from the MainWays).
// See the package comment and DESIGN.md for the full mechanism.
type NUcache struct {
	cfg     Config
	mon     *Monitor
	chosen  []uint64   // sorted ascending; sized by MaxChosen (hot: isChosen)
	curDeli int        // active DeliWays count (== cfg.DeliWays unless adaptive)
	sets    []setState // indexed by Set.Index

	missesSinceEpoch uint64
	epochTarget      uint64

	// Epochs counts completed selections.
	Epochs int
	// LastReport is the most recent selection's report.
	LastReport SelectionReport

	// Realized behaviour counters (for experiments and tests).
	DeliHits       uint64 // hits serviced from a DeliWay
	Demotions      uint64 // lines leaving the MainWays
	DeliInsertions uint64 // demotions retained into DeliWays
}

// Compile-time interface checks.
var (
	_ cache.Policy         = (*NUcache)(nil)
	_ cache.AccessObserver = (*NUcache)(nil)
)

// New constructs a NUcache policy. The configuration's Ways must match
// the associativity of the cache it is attached to.
func New(cfg Config) (*NUcache, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &NUcache{
		cfg:     cfg,
		mon:     NewMonitor(cfg),
		curDeli: cfg.DeliWays,
		// A short first epoch engages retention quickly after cold start.
		epochTarget: cfg.EpochMisses / 8,
	}
	if p.epochTarget == 0 {
		p.epochTarget = cfg.EpochMisses
	}
	return p, nil
}

// MustNew is New for static configurations; it panics on config errors.
func MustNew(cfg Config) *NUcache {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements cache.Policy.
func (*NUcache) Name() string { return "NUcache" }

// Config returns the policy's (defaulted) configuration.
func (p *NUcache) Config() Config { return p.cfg }

// Monitor exposes the Next-Use monitor (characterization experiments).
func (p *NUcache) Monitor() *Monitor { return p.mon }

// ChosenPCs returns the currently chosen delinquent PCs, sorted.
func (p *NUcache) ChosenPCs() []uint64 {
	return append([]uint64(nil), p.chosen...)
}

// setState is one set's logical organization: together the two lists
// hold every valid way exactly once.
type setState struct {
	main cache.WayList // front = MRU, back = LRU
	deli cache.WayList // front = oldest (FIFO head), back = newest
}

// Init implements cache.Policy.
func (p *NUcache) Init(sets int) { p.sets = make([]setState, sets) }

// mainCap is the current MainWays capacity: with no chosen PCs the
// DeliWays would be dead storage, so the whole set serves as MainWays
// (plain LRU) until the selection finds PCs worth retaining.
func (p *NUcache) mainCap() int {
	if p.curDeli == 0 || len(p.chosen) == 0 {
		return p.cfg.Ways
	}
	return p.cfg.Ways - p.curDeli
}

// DeliWaysInUse returns the active DeliWays count (differs from the
// configuration only in adaptive mode).
func (p *NUcache) DeliWaysInUse() int { return p.curDeli }

// ObserveAccess implements cache.AccessObserver: the monitor checks every
// access against the sampled victim tables.
func (p *NUcache) ObserveAccess(setIndex int, tag uint64, _ *cache.Request) {
	p.mon.OnAccess(setIndex, tag)
}

// OnHit implements cache.Policy. MainWay hits refresh recency; DeliWay
// hits optionally re-promote into the MainWays, swapping the MainWays LRU
// line into the freed FIFO slot.
func (p *NUcache) OnHit(set *cache.Set, way int, _ *cache.Request) {
	st := &p.sets[set.Index()]
	if mi := st.main.IndexOf(way); mi >= 0 {
		// Inline MoveToFront: one scan instead of Contains + IndexOf.
		st.main.RemoveAt(mi)
		st.main.PushFront(way)
		return
	}
	// Every valid way is in exactly one list, so a hit outside the
	// MainWays is a DeliWay hit.
	idx := st.deli.IndexOf(way)
	p.DeliHits++
	if !p.cfg.PromoteOnDeliHit {
		return
	}
	if st.main.Len() < p.mainCap() {
		// Room in the MainWays (e.g. right after a fallback to all-main):
		// promote without displacing anyone. This branch also covers an
		// empty MainWays list, so Back() below is always safe.
		st.deli.RemoveAt(idx)
		st.main.PushFront(way)
		return
	}
	// Swap: the promoted line takes MainWays MRU; the MainWays LRU line
	// takes the freed FIFO slot — but only if that line is itself from a
	// chosen PC. Swapping unchosen lines in would dilute the DeliWays
	// with lines the selection decided not to retain.
	lru := st.main.Back()
	if !p.isChosen(set.Lines[lru].PC) {
		return
	}
	st.main.PopBack()
	st.deli.RemoveAt(idx)
	st.deli.InsertAt(idx, lru)
	st.main.PushFront(way)
}

// Victim implements cache.Policy.
func (p *NUcache) Victim(set *cache.Set, req *cache.Request) int {
	setIndex := set.Index()
	st := &p.sets[setIndex]
	p.mon.OnMiss(setIndex, req.PC)
	p.missesSinceEpoch++
	if p.missesSinceEpoch >= p.epochTarget {
		p.runSelection()
	}

	capMain := p.mainCap()

	// Room in the MainWays: fill a free physical way.
	if st.main.Len() < capMain {
		if inv := set.FindInvalid(); inv >= 0 {
			return inv
		}
		// All ways valid yet MainWays under capacity: fall through to
		// normal replacement (the post-fallback transition).
	}

	// Demote MainWays LRU lines until one frees a physical way: an
	// unchosen victim leaves the cache directly; chosen victims move into
	// the DeliWays, freeing a way only when the FIFO overflows. The loop
	// also drains an oversized MainWays after a fallback epoch ends.
	for st.main.Len() > 0 {
		victimWay := st.main.PopBack()
		pc := set.Lines[victimWay].PC
		p.Demotions++
		p.mon.OnDemotion(setIndex, set.Tag(victimWay), pc)

		if p.curDeli > 0 && p.isChosen(pc) {
			st.deli.PushBack(victimWay)
			p.DeliInsertions++
			if st.deli.Len() > p.curDeli {
				return st.deli.PopFront() // FIFO head leaves the cache
			}
			if inv := set.FindInvalid(); inv >= 0 {
				return inv
			}
			// All ways valid and the FIFO absorbed the victim: demote
			// the next MainWays LRU line.
			continue
		}
		return victimWay
	}

	// Unreachable: lines are never invalidated, so every valid way sits
	// in exactly one list, and the DeliWays FIFO never holds more than
	// curDeli < Ways of them. A full set therefore always keeps a MainWay
	// for the loop to return; reaching here means that invariant broke.
	panic("core: NUcache set has no MainWays line to evict")
}

// OnInsert implements cache.Policy: new fills always enter the MainWays
// at MRU. Victim returned a way that is in neither list: an invalid way
// (lists track only valid ones) or one it popped.
func (p *NUcache) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	p.sets[set.Index()].main.PushFront(way)
}

// isChosen reports whether pc is in the chosen set. The set is a small
// slice (at most MaxChosen ≤ Candidates entries, typically a handful): a
// linear scan over contiguous memory beats both a map lookup and a
// binary search on the per-demotion hot path.
func (p *NUcache) isChosen(pc uint64) bool { return slices.Contains(p.chosen, pc) }

// runSelection closes the epoch: rank candidates, run the cost-benefit
// analysis, install the new chosen set and reset the monitor.
func (p *NUcache) runSelection() {
	p.missesSinceEpoch = 0
	p.epochTarget = p.cfg.EpochMisses
	cands := p.mon.TopCandidates(p.cfg.Candidates)
	var (
		chosen []uint64
		report SelectionReport
	)
	if p.cfg.AdaptiveDeliWays {
		chosen, report = SelectPCsAdaptive(cands, p.cfg.DeliWays, p.mon.SampledMisses(),
			p.cfg.MaxChosen, p.cfg.LifetimeSlack)
		if len(chosen) > 0 {
			p.curDeli = report.DeliWays
		}
	} else {
		chosen, report = SelectPCs(cands, p.cfg.DeliWays, p.mon.SampledMisses(),
			p.cfg.MaxChosen, p.cfg.LifetimeSlack)
	}
	p.Epochs++
	report.Epoch = p.Epochs
	p.chosen = chosen
	p.LastReport = report
	p.mon.EndEpoch()
	if len(p.chosen) == 0 {
		p.adoptDeliWays()
	}
	// A shrunken split leaves some sets with oversized FIFOs; they drain
	// one line per subsequent retention, and orphaned lines remain
	// hittable, so no eager sweep is needed.
}

// adoptDeliWays migrates retained lines into the MainWays LRU stack when
// an epoch ends with nothing chosen: without insertions the FIFO would
// never drain and its lines would be pinned forever. Newest entries land
// closest to the existing stack; the oldest becomes the first victim.
func (p *NUcache) adoptDeliWays() {
	for i := range p.sets {
		st := &p.sets[i]
		for st.deli.Len() > 0 {
			newest := st.deli.At(st.deli.Len() - 1)
			st.deli.RemoveAt(st.deli.Len() - 1)
			st.main.PushBack(newest)
		}
	}
}
