package workload

import (
	"testing"

	"nucache/internal/trace"
)

func TestPackedAccessRoundTrips(t *testing.T) {
	// The first and last line of the lowest slot, of the largest region
	// any model places (512 MB at slot 1) and of a region at the top of
	// the packed address range.
	top := region{base: addrMask + 1 - 1<<26, lines: 1 << 20}
	regions := []region{regionAt(0, 64<<10), regionAt(1, 512<<20), top}
	for n := 0; n < maxSites; n++ {
		for gap := uint32(0); gap <= maxGap; gap++ {
			s := siteAt(n, gap)
			for _, r := range regions {
				for _, line := range []uint64{0, r.lines - 1} {
					addr := r.addr(line)
					var e emitter
					e.load(s, addr)
					e.store(s, addr)
					pc := uint64(pcBase + 4*n)
					want := []trace.Access{
						{PC: pc, Addr: addr, Kind: trace.Load, Gap: gap},
						{PC: pc, Addr: addr, Kind: trace.Store, Gap: gap},
					}
					for i, w := range e.out {
						if got := unpack(w); got != want[i] {
							t.Fatalf("site %d gap %d addr %#x: unpacked %+v, want %+v", n, gap, addr, got, want[i])
						}
					}
				}
			}
		}
	}
}

func TestUnrepresentableAccessPanics(t *testing.T) {
	cases := map[string]func(){
		"site index":      func() { siteAt(maxSites, 1) },
		"negative site":   func() { siteAt(-1, 1) },
		"gap":             func() { siteAt(0, maxGap+1) },
		"unaligned":       func() { new(emitter).load(siteAt(0, 1), 0x100000+8) },
		"too wide":        func() { new(emitter).load(siteAt(0, 1), addrMask+1) },
		"too wide store":  func() { new(emitter).store(siteAt(0, 1), 1<<63) },
		"region past top": func() { new(emitter).scan(siteAt(0, 1), region{base: addrMask + 1 - 64, lines: 2}, 0, 2) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRunsExpandLineByLine(t *testing.T) {
	r := regionAt(2, 8*lineBytes)
	ld, st, one := siteAt(0, 1), siteAt(1, 2), siteAt(4, 12)
	s := newRoundStream(func(e *emitter) {
		e.load(one, 0x100000)
		e.scan(ld, r, 6, 4) // wraps: lines 6, 7, 0, 1
		e.scan(ld, r, 0, 0) // empty: emits nothing
		e.scanStore(st, r, 9, 2)
		e.scanRMW(ld, st, r, 7, 2)
	})
	ldA := func(line uint64) trace.Access { return trace.Access{PC: pcBase, Addr: r.addr(line), Gap: 1} }
	stA := func(line uint64) trace.Access {
		return trace.Access{PC: pcBase + 4, Addr: r.addr(line), Kind: trace.Store, Gap: 2}
	}
	want := []trace.Access{
		{PC: pcBase + 16, Addr: 0x100000, Gap: 12},
		ldA(6), ldA(7), ldA(0), ldA(1),
		stA(1), stA(2),
		ldA(7), stA(7), ldA(0), stA(0),
	}
	// Two rounds: the second must restart every run from its start.
	for round := 0; round < 2; round++ {
		for i, w := range want {
			if got, _ := s.Next(); got != w {
				t.Fatalf("round %d access %d: %+v, want %+v", round, i, got, w)
			}
		}
	}
}
