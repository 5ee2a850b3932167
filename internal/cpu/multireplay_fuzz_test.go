package cpu

// FuzzMultiReplayGrid replays arbitrary hand-built tapes — valid,
// malformed (stray or out-of-range crossings) and bit-flipped after
// sealing — through a 3-lane policy grid. The contract under corruption:
// Run returns an error with nil results — never a panic, and never a
// replay of flipped records — and lanes are isolated: each lane's
// outcome (results or failure) is identical to a standalone
// single-policy replay of the same tape, because the item stream and
// every failure mode are policy-independent.

import (
	"reflect"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

func fuzzGridConfig() Config {
	return Config{
		Cores:      1,
		L1:         cache.Config{SizeBytes: 2 << 10, Ways: 2, LineBytes: 64},
		LLC:        cache.Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64},
		L1Latency:  1,
		LLCLatency: 10,
		MemLatency: 100,
	}
}

// splitmix64 is the fuzz harness's event-field generator: one uint64
// seed expands into a deterministic tape.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildFuzzTape hand-builds a complete tape through the recorder's page
// writer: events derived from seed, a record crossing at crossAfter, an
// exhaustion crossing at the end, one sealed frame over all of it, and
// then — when mutXor's low byte is non-zero — one byte of one word
// flipped, as bit rot after sealing would. Events draw their PCs from
// 320 values, more than the PC table holds, and one in eight has a gap
// of 2^20 cycles or more, so a long tape holds escaped event and
// writeback words and the flipped byte may land in one. It reports
// whether a byte was flipped.
func buildFuzzTape(cfg Config, nEvents, seed, crossAfter uint64, onEvent bool, mutPos, mutXor uint64) (*Tape, bool) {
	r := &recorder{}
	pc := func() uint64 { return 0x400000 + 4*(splitmix64(&seed)%320) }
	var p uint64
	for i := uint64(0); i < nEvents; i++ {
		x := splitmix64(&seed)
		ev := trace.FilteredEvent{
			Addr:     x & (1<<coreAddrShift - 1) &^ 63,
			PC:       pc(),
			CycleGap: splitmix64(&seed) & 0xffff,
			Kind:     trace.Load,
		}
		if x&1 != 0 {
			ev.Kind = trace.Store
		}
		if x&2 != 0 {
			ev.HasWB = true
			ev.WBAddr = splitmix64(&seed) & (1<<coreAddrShift - 1) &^ 63
			ev.WBPC = pc()
		}
		if x>>61 == 0 {
			ev.CycleGap <<= 20
		}
		p += ev.CycleGap
		r.append(ev)
	}
	r.crossings = append(r.crossings, trace.Crossing{
		Kind: trace.CrossRecord, AfterEvents: crossAfter, OnEvent: onEvent,
		PStart: p, PEnd: p + 2, Instr: nEvents * 3, Mem: nEvents,
		L1Hits: nEvents * 2, L1Misses: nEvents,
	})
	r.crossings = append(r.crossings, trace.Crossing{
		Kind: trace.CrossExhaust, AfterEvents: nEvents, PStart: p + 3, PEnd: p + 3,
	})
	// Complete before any replay: the recorder has no live stream, so an
	// extension attempt would be a harness bug, not a replay one.
	r.complete = true
	t := &Tape{frontEnd: frontEndOf(cfg), rec: r, chunk: tapeChunkMin}
	t.sealFrame()

	if mutXor&0xff == 0 || r.words == 0 {
		return t, false
	}
	i, byteOff := mutPos/8%r.words, mutPos%8
	r.pages[i>>pageShift][i&pageMask] ^= (mutXor & 0xff) << (8 * byteOff)
	return t, true
}

func FuzzMultiReplayGrid(f *testing.F) {
	f.Add(uint64(64), uint64(1), uint64(64), false, uint64(0), uint64(0))       // valid, record at end
	f.Add(uint64(64), uint64(2), uint64(64), true, uint64(0), uint64(0))        // valid, on-event record
	f.Add(uint64(16), uint64(3), uint64(7), false, uint64(0), uint64(0))        // record mid-tape
	f.Add(uint64(0), uint64(4), uint64(0), true, uint64(0), uint64(0))          // stray on-event crossing
	f.Add(uint64(32), uint64(5), uint64(40), false, uint64(0), uint64(0))       // crossing past the tape
	f.Add(uint64(64), uint64(6), uint64(64), false, uint64(10), uint64(128))    // flip in an event record
	f.Add(uint64(64), uint64(7), uint64(64), false, uint64(1200), uint64(0xff)) // flip in a writeback record

	f.Fuzz(func(t *testing.T, nEvents, seed, crossAfter uint64, onEvent bool, mutPos, mutXor uint64) {
		nEvents %= 2048
		if crossAfter > nEvents+8 {
			crossAfter %= nEvents + 8 // keep some runs valid, some past the end
		}
		cfg := fuzzGridConfig()
		lanes := func() []cache.Policy {
			return []cache.Policy{
				policy.NewLRU(),
				policy.NewDRRIP(uint64(cfg.Cores)),
				policy.NewUCP(cfg.Cores, cfg.LLC.Ways),
			}
		}
		tape, flipped := buildFuzzTape(cfg, nEvents, seed, crossAfter, onEvent, mutPos, mutXor)

		ms := NewMultiReplaySystem(cfg, lanes(), tape0(tape))
		mRes, mErr := ms.Run()
		if mErr != nil && mRes != nil {
			t.Fatalf("failed grid returned non-nil results: %+v", mRes)
		}
		if flipped && mErr == nil {
			t.Fatal("grid replayed a tape flipped after sealing")
		}

		// Lane isolation: each lane must match a standalone single-policy
		// replay of the same bytes, in outcome and in content.
		for li, pol := range lanes() {
			rs := NewReplaySystem(cfg, pol, tape0(tape))
			sRes, sErr := rs.Run()
			if (mErr == nil) != (sErr == nil) {
				t.Fatalf("lane %d: grid err %v, single err %v", li, mErr, sErr)
			}
			if mErr == nil && !reflect.DeepEqual(mRes[li], sRes) {
				t.Fatalf("lane %d diverges from single replay\ngrid:   %+v\nsingle: %+v",
					li, mRes[li], sRes)
			}
		}
	})
}

func tape0(t *Tape) []*Tape { return []*Tape{t} }

// FuzzMultiReplayGridParallel is FuzzMultiReplayGrid with lanes run on
// worker goroutines: the error-never-panic and lane-isolation contracts
// must survive arbitrary corruption with one tape replayed concurrently
// by every lane.
func FuzzMultiReplayGridParallel(f *testing.F) {
	f.Add(uint64(64), uint64(1), uint64(64), false, uint64(0), uint64(0))
	f.Add(uint64(16), uint64(3), uint64(7), false, uint64(0), uint64(0))
	f.Add(uint64(0), uint64(4), uint64(0), true, uint64(0), uint64(0))
	f.Add(uint64(32), uint64(5), uint64(40), false, uint64(0), uint64(0))
	f.Add(uint64(64), uint64(6), uint64(64), false, uint64(10), uint64(128))
	f.Add(uint64(64), uint64(7), uint64(64), false, uint64(1200), uint64(0xff))

	f.Fuzz(func(t *testing.T, nEvents, seed, crossAfter uint64, onEvent bool, mutPos, mutXor uint64) {
		nEvents %= 2048
		if crossAfter > nEvents+8 {
			crossAfter %= nEvents + 8
		}
		cfg := fuzzGridConfig()
		lanes := func() []cache.Policy {
			return []cache.Policy{
				policy.NewLRU(),
				policy.NewDRRIP(uint64(cfg.Cores)),
				policy.NewUCP(cfg.Cores, cfg.LLC.Ways),
			}
		}
		tape, flipped := buildFuzzTape(cfg, nEvents, seed, crossAfter, onEvent, mutPos, mutXor)

		ms := NewMultiReplaySystem(cfg, lanes(), tape0(tape))
		mRes, mErr := ms.RunParallel(3)
		if mErr != nil && mRes != nil {
			t.Fatalf("failed parallel grid returned non-nil results: %+v", mRes)
		}
		if flipped && mErr == nil {
			t.Fatal("parallel grid replayed a tape flipped after sealing")
		}

		for li, pol := range lanes() {
			rs := NewReplaySystem(cfg, pol, tape0(tape))
			sRes, sErr := rs.Run()
			if (mErr == nil) != (sErr == nil) {
				t.Fatalf("lane %d: parallel grid err %v, single err %v", li, mErr, sErr)
			}
			if mErr == nil && !reflect.DeepEqual(mRes[li], sRes) {
				t.Fatalf("lane %d diverges from single replay\ngrid:   %+v\nsingle: %+v",
					li, mRes[li], sRes)
			}
		}
	})
}
