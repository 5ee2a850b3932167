package cpu

// FuzzMultiReplayGrid extends the FuzzFilteredDecode family one layer
// up: arbitrary (valid and bit-flipped) hand-built tapes are replayed
// through a 3-lane policy grid. The contract under corruption: Run
// returns an error with nil results — never a panic — and lanes are
// isolated: each lane's outcome (results or failure) is identical to a
// standalone single-policy replay of the same bytes, because the item
// stream and every failure mode are policy-independent.

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

// buildFuzzTape hand-builds a complete tape: events derived from seed,
// a record crossing at crossAfter, an exhaustion crossing at the end,
// and optionally one flipped byte in the packed buffer. decCount stays
// zero, so every replay stream-decodes through the shared window — the
// multi-lane path under test.
func buildFuzzTape(cfg Config, nEvents, seed, crossAfter uint64, onEvent bool, mutPos, mutXor uint64) *Tape {
	ft := &trace.FilteredTrace{}
	var p uint64
	for i := uint64(0); i < nEvents; i++ {
		r := splitmix64(&seed)
		ev := trace.FilteredEvent{
			Addr:     r & (1<<42 - 1) &^ 63,
			PC:       splitmix64(&seed) & (1<<48 - 1),
			CycleGap: splitmix64(&seed) & 0xffff,
			InstrGap: splitmix64(&seed) & 0xff,
			Kind:     trace.Load,
		}
		if r&1 != 0 {
			ev.Kind = trace.Store
		}
		if r&2 != 0 {
			ev.HasWB = true
			ev.WBAddr = splitmix64(&seed) & (1<<40 - 1) &^ 63
			ev.WBPC = splitmix64(&seed) & (1<<48 - 1)
		}
		p += ev.CycleGap
		ft.AppendEvent(ev)
	}
	ft.AppendCrossing(trace.Crossing{
		Kind: trace.CrossRecord, AfterEvents: crossAfter, OnEvent: onEvent,
		PStart: p, PEnd: p + 2, Instr: nEvents * 3, Mem: nEvents,
		L1Hits: nEvents * 2, L1Misses: nEvents,
	})
	ft.AppendCrossing(trace.Crossing{
		Kind: trace.CrossExhaust, AfterEvents: nEvents, PStart: p + 3, PEnd: p + 3,
	})
	// MarkComplete before any replay: the recorder has no live stream, so
	// an extension attempt would be a harness bug, not a decoder one.
	ft.MarkComplete()
	if mutXor&0xff != 0 {
		if buf, _, _ := ft.Snapshot(); len(buf) > 0 {
			buf[mutPos%uint64(len(buf))] ^= byte(mutXor)
		}
	}
	return &Tape{frontEnd: frontEndOf(cfg), rec: &recorder{cfg: cfg, tr: ft}, chunk: tapeChunkMin}
}

func FuzzMultiReplayGrid(f *testing.F) {
	f.Add(uint64(64), uint64(1), uint64(64), false, uint64(0), uint64(0))      // valid, record at end
	f.Add(uint64(64), uint64(2), uint64(64), true, uint64(0), uint64(0))       // valid, on-event record
	f.Add(uint64(16), uint64(3), uint64(7), false, uint64(0), uint64(0))       // record mid-tape
	f.Add(uint64(0), uint64(4), uint64(0), true, uint64(0), uint64(0))         // stray on-event crossing
	f.Add(uint64(32), uint64(5), uint64(40), false, uint64(0), uint64(0))      // crossing past the tape
	f.Add(uint64(64), uint64(6), uint64(64), false, uint64(10), uint64(128))   // continuation-bit flip
	f.Add(uint64(64), uint64(7), uint64(64), false, uint64(900), uint64(0xff)) // flip near the tail

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
		tape := buildFuzzTape(cfg, nEvents, seed, crossAfter, onEvent, mutPos, mutXor)

		ms := NewMultiReplaySystem(cfg, lanes(), tape0(tape))
		mRes, mErr := ms.Run()
		if mErr != nil && mRes != nil {
			t.Fatalf("failed grid returned non-nil results: %+v", mRes)
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
// (decCount stays zero in these tapes, so every lane stream-decodes
// every event from the shared packed buffer).
func FuzzMultiReplayGridParallel(f *testing.F) {
	f.Add(uint64(64), uint64(1), uint64(64), false, uint64(0), uint64(0))
	f.Add(uint64(16), uint64(3), uint64(7), false, uint64(0), uint64(0))
	f.Add(uint64(0), uint64(4), uint64(0), true, uint64(0), uint64(0))
	f.Add(uint64(32), uint64(5), uint64(40), false, uint64(0), uint64(0))
	f.Add(uint64(64), uint64(6), uint64(64), false, uint64(10), uint64(128))
	f.Add(uint64(64), uint64(7), uint64(64), false, uint64(900), uint64(0xff))

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
		tape := buildFuzzTape(cfg, nEvents, seed, crossAfter, onEvent, mutPos, mutXor)

		ms := NewMultiReplaySystem(cfg, lanes(), tape0(tape))
		mRes, mErr := ms.RunParallel(3)
		if mErr != nil && mRes != nil {
			t.Fatalf("failed parallel grid returned non-nil results: %+v", mRes)
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
