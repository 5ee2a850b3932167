package workload

import (
	"fmt"

	"nucache/internal/stats"
	"nucache/internal/trace"
)

// lineBytes is the access granularity; all generators emit line-aligned
// addresses (sub-line offsets would only add L1 hits).
const lineBytes = 64

// A round is buffered as packed 8-byte words rather than 24-byte
// trace.Access values, and each sequential pass (scan, scanStore,
// scanRMW) as one word that names a run, so a live stream keeps 8 bytes
// per single access and one word per pass (libquantum-like's
// 65,536-access round is one word). An access word holds the
// line-aligned address in its low 55 bits and the site's
// code in its top byte: the site index (bits 56-58), the gap (bits
// 59-62) and the store bit (63). A run word sets bit 55 and holds the
// run's index in the round's run list. The PC is rebuilt from the site
// index. Within a model, regions sit at (n+1)<<26 and are at most
// 512 MB, a model has at most 5 sites and the largest gap is 12, so
// every access fits; one that does not panics rather than being
// silently changed.
const (
	pcBase    = 0x400000
	runBit    = 1 << 55
	siteShift = 56
	gapShift  = 59
	maxSites  = 1 << (gapShift - siteShift)
	maxGap    = 1<<(63-gapShift) - 1
	storeBit  = 1 << 63
	addrMask  = runBit - 1
	// badAddr flags an address the word cannot hold: unaligned or too wide.
	badAddr = ^uint64(addrMask) | (lineBytes - 1)
)

// site is a static access site: one load/store instruction in the
// modelled program. code is its packed site index and gap, the
// non-memory instruction count preceding each dynamic access from it.
type site struct {
	code uint64
}

// siteAt returns site n of a model; sites are 4 bytes apart from pcBase.
func siteAt(n int, gap uint32) site {
	if n < 0 || n >= maxSites || gap > maxGap {
		panic(fmt.Sprintf("workload: site %d with gap %d does not fit a packed access", n, gap))
	}
	return site{code: uint64(n)<<siteShift | uint64(gap)<<gapShift}
}

// region is a contiguous memory area of a program model.
type region struct {
	base  uint64
	lines uint64
}

// addr returns the address of line i (mod the region size).
func (r region) addr(i uint64) uint64 {
	return r.base + (i%r.lines)*lineBytes
}

// regionAt places a region of size bytes at slot n (64 MB apart, so
// regions never overlap within a program).
func regionAt(n int, bytes uint64) region {
	return region{base: uint64(n+1) << 26, lines: (bytes + lineBytes - 1) / lineBytes}
}

// run is a sequential pass of n lines of r from line start, wrapping at
// the region's end. Each line is accessed with codes[0], then, when per
// is 2, with codes[1].
type run struct {
	codes [2]uint64
	per   uint64
	r     region
	start uint64
	n     uint64
}

// emitter accumulates one round (outer-loop iteration) of packed
// accesses and the runs its run words name.
type emitter struct {
	out  []uint64
	runs []run
}

func (e *emitter) emit(code, addr uint64) {
	if addr&badAddr != 0 {
		panic(unfitAddr(addr))
	}
	e.out = append(e.out, code|addr)
}

// unfitAddr is the panic value for an address no packed word holds; a
// value rather than a formatted string so that emit inlines.
type unfitAddr uint64

func (a unfitAddr) Error() string {
	return fmt.Sprintf("workload: address %#x does not fit a packed access", uint64(a))
}

func (e *emitter) load(s site, addr uint64) { e.emit(s.code, addr) }

func (e *emitter) store(s site, addr uint64) { e.emit(s.code|storeBit, addr) }

// pass appends a run word for u, whose region must fit the packed
// address range.
func (e *emitter) pass(u run) {
	if u.n == 0 {
		return
	}
	if u.r.base&badAddr != 0 || u.r.addr(u.r.lines-1)&badAddr != 0 {
		panic(fmt.Sprintf("workload: region %#x+%d lines does not fit a packed access", u.r.base, u.r.lines))
	}
	e.out = append(e.out, runBit|uint64(len(e.runs)))
	e.runs = append(e.runs, u)
}

// scan emits a sequential pass of n lines of r starting at line start.
func (e *emitter) scan(s site, r region, start, n uint64) {
	e.pass(run{codes: [2]uint64{s.code}, per: 1, r: r, start: start, n: n})
}

// scanStore is scan with stores.
func (e *emitter) scanStore(s site, r region, start, n uint64) {
	e.pass(run{codes: [2]uint64{s.code | storeBit}, per: 1, r: r, start: start, n: n})
}

// scanRMW is a read-modify-write pass: each line is loaded by ld, then
// stored by st.
func (e *emitter) scanRMW(ld, st site, r region, start, n uint64) {
	e.pass(run{codes: [2]uint64{ld.code, st.code | storeBit}, per: 2, r: r, start: start, n: n})
}

// unpack rebuilds the access a packed word holds.
func unpack(w uint64) trace.Access {
	return trace.Access{
		PC:   pcBase + (w>>siteShift&(maxSites-1))*4,
		Addr: w & addrMask,
		Kind: trace.Kind(w >> 63),
		Gap:  uint32(w >> gapShift & maxGap),
	}
}

// roundStream adapts a per-round generator to trace.Stream. round must
// append at least one access per call.
type roundStream struct {
	buf   []uint64
	runs  []run
	pos   int
	round func(e *emitter)

	// The run being expanded: left accesses remain; the next is codes[k]
	// at addr, and addr wraps from end to base.
	left            uint64
	codes           [2]uint64
	k, per          uint64
	addr, base, end uint64
}

// newRoundStream builds a stream from a round generator.
func newRoundStream(round func(e *emitter)) trace.Stream {
	return &roundStream{round: round}
}

// Next implements trace.Stream.
func (s *roundStream) Next() (trace.Access, bool) {
	if s.left == 0 {
		for s.pos >= len(s.buf) {
			e := emitter{out: s.buf[:0], runs: s.runs[:0]}
			s.round(&e)
			if len(e.out) == 0 {
				panic("workload: round generator produced no accesses")
			}
			s.buf, s.runs = e.out, e.runs
			s.pos = 0
		}
		w := s.buf[s.pos]
		s.pos++
		if w&runBit == 0 {
			return unpack(w), true
		}
		u := &s.runs[w&addrMask]
		s.left, s.codes, s.k, s.per = u.n*u.per, u.codes, 0, u.per
		s.addr, s.base, s.end = u.r.addr(u.start), u.r.base, u.r.base+u.r.lines*lineBytes
	}
	w := s.codes[s.k] | s.addr
	s.left--
	if s.k++; s.k == s.per {
		s.k = 0
		if s.addr += lineBytes; s.addr == s.end {
			s.addr = s.base
		}
	}
	return unpack(w), true
}

// permCycle builds a random single-cycle permutation of [0, n) — the
// canonical pointer-chasing structure (Sattolo's algorithm).
func permCycle(rng *stats.RNG, n int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// perm as sequence; convert to successor mapping.
	next := make([]uint32, n)
	for i := 0; i < n-1; i++ {
		next[perm[i]] = perm[i+1]
	}
	next[perm[n-1]] = perm[0]
	return next
}
