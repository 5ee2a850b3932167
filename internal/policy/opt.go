package policy

import (
	"math"

	"nucache/internal/cache"
)

// OPT is Belady's offline optimal replacement: the victim is the line
// whose next use is farthest in the future (or never). It needs the
// cache's future access sequence, precomputed with NextUseChain; because
// upper-level caches filter independently of the LLC policy, the LLC
// access stream can be recorded under any policy and replayed under OPT.
type OPT struct {
	// nextUse[seq] is the sequence number of the next access to the same
	// line after access seq, or NeverUsed.
	nextUse []uint64
}

// NeverUsed marks a line with no future access.
const NeverUsed = math.MaxUint64

// NewOPT returns an OPT policy driven by a precomputed next-use chain.
func NewOPT(nextUse []uint64) *OPT { return &OPT{nextUse: nextUse} }

// NextUseChain computes, for each position i in a sequence of line
// addresses, the position of the next access to the same line
// (NeverUsed if none).
func NextUseChain(lineAddrs []uint64) []uint64 {
	next := make([]uint64, len(lineAddrs))
	last := make(map[uint64]int, 1024)
	for i := len(lineAddrs) - 1; i >= 0; i-- {
		if j, ok := last[lineAddrs[i]]; ok {
			next[i] = uint64(j)
		} else {
			next[i] = NeverUsed
		}
		last[lineAddrs[i]] = i
	}
	return next
}

// Name implements cache.Policy.
func (*OPT) Name() string { return "OPT" }

// Init implements cache.Policy: OPT keeps no per-set state.
func (*OPT) Init(int) {}

func (o *OPT) futureOf(seq uint64) uint64 {
	if seq < uint64(len(o.nextUse)) {
		return o.nextUse[seq]
	}
	// Accesses beyond the precomputed horizon have unknown futures;
	// treating them as never-used keeps the policy safe to run past it.
	return NeverUsed
}

// OnHit implements cache.Policy.
func (o *OPT) OnHit(set *cache.Set, way int, req *cache.Request) {
	set.Lines[way].Meta = o.futureOf(req.Seq)
}

// Victim implements cache.Policy: farthest next use.
func (o *OPT) Victim(set *cache.Set, req *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	best, bestNext := 0, uint64(0)
	for i := range set.Lines {
		if set.Lines[i].Meta >= bestNext {
			best, bestNext = i, set.Lines[i].Meta
		}
		if bestNext == NeverUsed {
			break
		}
	}
	// True Belady also declines fills whose own next use is farther than
	// every resident line's; classic OPT caches everything, which is what
	// we model for a like-for-like replacement comparison.
	return best
}

// OnInsert implements cache.Policy.
func (o *OPT) OnInsert(set *cache.Set, way int, req *cache.Request) {
	set.Lines[way].Meta = o.futureOf(req.Seq)
}

// Recorder wraps a Policy and records the line address of every access
// presented to the cache, in order — the input NextUseChain needs.
type Recorder struct {
	cache.Policy
	inner     cache.AccessObserver
	LineAddrs []uint64
}

// NewRecorder wraps p.
func NewRecorder(p cache.Policy) *Recorder {
	r := &Recorder{Policy: p}
	r.inner, _ = p.(cache.AccessObserver)
	return r
}

// ObserveAccess implements cache.AccessObserver.
func (r *Recorder) ObserveAccess(setIndex int, tag uint64, req *cache.Request) {
	r.LineAddrs = append(r.LineAddrs, tag)
	if r.inner != nil {
		r.inner.ObserveAccess(setIndex, tag, req)
	}
}
