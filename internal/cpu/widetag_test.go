package cpu_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/memory"
	"nucache/internal/sim"
	"nucache/internal/trace"
)

// wideStream is a hand-made stream of the kind only trace files bring:
// addresses at and above 2^40 (the bits the LLC's core tag adds to,
// including the top of the address space, where the tag wraps), 1 in 4
// of them byte-granular, and PCs at and above 2^48 (the bits the core
// tag ORs into).
func wideStream(n int, seed int64) []trace.Access {
	rng := rand.New(rand.NewSource(seed))
	bases := []uint64{0, 5 << 40, 0xffff_ff00_0000_0000, 1<<63 | 3<<40}
	pcs := make([]uint64, 12)
	for i := range pcs {
		pcs[i] = uint64(i%4)<<48 | uint64(i/4)<<62 | (0x400000 + 4*uint64(i))
	}
	out := make([]trace.Access, n)
	for i := range out {
		line := uint64(rng.Intn(1 << 9))
		if rng.Intn(4) == 0 {
			line = uint64(rng.Intn(1 << 14))
		}
		a := trace.Access{
			Addr: bases[rng.Intn(len(bases))] + line*64,
			PC:   pcs[rng.Intn(len(pcs))],
			Gap:  uint32(rng.Intn(8)),
		}
		if rng.Intn(4) == 0 {
			a.Addr += uint64(rng.Intn(64))
		}
		if rng.Intn(10) < 3 {
			a.Kind = trace.Store
		}
		out[i] = a
	}
	return out
}

// TestReplayWideStreamsDirectDigest pins direct simulation of wide
// streams (wideStream) on a 2-core machine with a private L2, warm-up,
// prefetching and DRAM, and on a 4-core machine whose cores run dry one
// by one: per-core results, LLC and DRAM statistics, writebacks and
// prefetches under every policy hash to fixed digests. The direct
// engine applies core tags at the LLC only; these digests were taken
// when it still tagged before the private levels, so they pin that the
// move is exact for every address and PC.
func TestReplayWideStreamsDirectDigest(t *testing.T) {
	two := cpu.Config{
		Cores:          2,
		L1:             cache.Config{SizeBytes: 2 << 10, Ways: 2, LineBytes: 64},
		L2:             cache.Config{SizeBytes: 8 << 10, Ways: 4, LineBytes: 64},
		LLC:            cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64},
		L1Latency:      1,
		L2Latency:      6,
		LLCLatency:     10,
		MemLatency:     100,
		InstrBudget:    30_000,
		WarmupInstr:    2_000,
		PrefetchDegree: 1,
	}
	d := memory.DefaultConfig()
	two.DRAM = &d
	four := smallConfig(4)
	four.InstrBudget = 0

	cases := []struct {
		name string
		cfg  cpu.Config
		lens []int
		want string
	}{
		{"2core", two, []int{20_000, 20_000}, "ac6cd310d6f2e5da825b3625"},
		{"4core-exhaust", four, []int{3_000, 5_000, 7_000, 9_000}, "65523e4210faaee519ed35e1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			for _, polName := range sim.Policies() {
				pol, err := sim.BuildPolicy(polName, tc.cfg.Cores, tc.cfg.LLC.Ways, 0)
				if err != nil {
					t.Fatal(err)
				}
				streams := make([]trace.Stream, len(tc.lens))
				for i, n := range tc.lens {
					streams[i] = trace.NewSliceStream(wideStream(n, int64(10*i+1)))
				}
				sys := cpu.NewSystem(tc.cfg, pol, streams)
				res := sys.Run()
				fmt.Fprintf(h, "%s|%+v|%+v|%d|%d", polName, res, sys.LLC().Stats, sys.Writebacks, sys.PrefetchIssued)
				if dr := sys.DRAM(); dr != nil {
					fmt.Fprintf(h, "|%d|%d", dr.Accesses, dr.RowHits)
				}
				fmt.Fprintln(h)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestReplayWidePCsMatchDirect: PCs of 2^48 and more are stored whole
// on a tape, so streams of them (with addresses a tape can hold) record
// and replay bit-identical to direct simulation under every policy.
func TestReplayWidePCsMatchDirect(t *testing.T) {
	streams := func(lens ...int) func() []trace.Stream {
		return func() []trace.Stream {
			out := make([]trace.Stream, len(lens))
			for i, n := range lens {
				accs := wideStream(n, int64(10*i+1))
				for j := range accs {
					accs[j].Addr &= 1<<40 - 64
				}
				out[i] = trace.NewSliceStream(accs)
			}
			return out
		}
	}
	flat := replayCase{name: "flat", cfg: smallConfig(2), streams: streams(20_000, 20_000)}
	deep := replayCase{name: "L2+warmup+prefetch+dram", cfg: smallConfig(4), streams: streams(3_000, 5_000, 7_000, 9_000)}
	deep.cfg.L2 = cache.Config{SizeBytes: 8 << 10, Ways: 4, LineBytes: 64}
	deep.cfg.L2Latency = 6
	deep.cfg.WarmupInstr = 2_000
	deep.cfg.PrefetchDegree = 1
	d := memory.DefaultConfig()
	deep.cfg.DRAM = &d
	for _, tc := range []replayCase{flat, deep} {
		t.Run(tc.name, func(t *testing.T) {
			tapes := makeTapes(tc)
			for _, polName := range sim.Policies() {
				t.Run(polName, func(t *testing.T) {
					dRes, d := runDirect(t, tc, polName)
					rRes, r := runReplay(t, tc, polName, tapes)
					compareRuns(t, dRes, rRes, d, r)
				})
			}
		})
	}
}
