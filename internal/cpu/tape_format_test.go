package cpu_test

// Edge cases of the 8-byte tape words: escapes for wide cycle gaps and
// for PCs past a full PC table, the alignment guard, and the page bytes
// a tape costs. Every tape that replays must still match direct
// simulation bit for bit.

import (
	"errors"
	"strings"
	"testing"

	"nucache/internal/cpu"
	"nucache/internal/sim"
	"nucache/internal/trace"
)

// syntheticStream is n accesses from access(i), i = 1..n.
func syntheticStream(n uint64, access func(i uint64) trace.Access) trace.Stream {
	var i uint64
	return trace.NewLimitStream(trace.FuncStream(func() (trace.Access, bool) {
		i++
		return access(i), true
	}), int(n))
}

// formatCase replays stream under every policy, checks it against
// direct simulation, and returns the tape.
func formatCase(t *testing.T, stream func() trace.Stream) *cpu.Tape {
	t.Helper()
	tc := replayCase{
		cfg:     smallConfig(1),
		streams: func() []trace.Stream { return []trace.Stream{stream()} },
	}
	// Streams end before any budget would: the wide-gap stream's gaps
	// exceed smallConfig's, and a budget would fail its tape as
	// LLC-quiet.
	tc.cfg.InstrBudget = 0
	tapes := makeTapes(tc)
	for _, polName := range sim.Policies() {
		t.Run(polName, func(t *testing.T) {
			dRes, d := runDirect(t, tc, polName)
			rRes, r := runReplay(t, tc, polName, tapes)
			compareRuns(t, dRes, rRes, d, r)
		})
	}
	return tapes[0]
}

// TestTapeWideGapEscape: a cycle gap of 2^20 or more between two LLC
// events does not fit the event word's gap field, so the event escapes
// to full words and replays exactly.
func TestTapeWideGapEscape(t *testing.T) {
	tape := formatCase(t, func() trace.Stream {
		return syntheticStream(6000, func(i uint64) trace.Access {
			a := trace.Access{PC: 0x400000 + 4*(i%3), Addr: 64 * (i % 2048), Gap: 2}
			if i%500 == 1 {
				a.Gap = 1<<20 + uint32(i)
			}
			return a
		})
	})
	// Every access is an LLC event, and a gap counts toward the next
	// event's cycle gap: 12 escaped events of two escape words each.
	if n := cpu.TapeWords(tape, cpu.EventEscapeWord); n != 2*12 {
		t.Errorf("tape holds %d event escape words; want 2 per wide gap (%d)", n, 2*12)
	}
}

// TestTapeEventPCTableOverflow: loads from more distinct PCs than the
// PC table holds; events past the full table escape to full PCs.
func TestTapeEventPCTableOverflow(t *testing.T) {
	tape := formatCase(t, func() trace.Stream {
		return syntheticStream(6000, func(i uint64) trace.Access {
			return trace.Access{PC: 0x400000 + 4*(i%400), Addr: 64 * (i % 4096), Gap: 1}
		})
	})
	if cpu.TapeWords(tape, cpu.EventEscapeWord) == 0 {
		t.Error("no event escaped past a full PC table")
	}
	if n := cpu.TapeWords(tape, cpu.WritebackWord); n != 0 {
		t.Errorf("a load-only stream recorded %d writebacks", n)
	}
}

// TestTapeWritebackPCTableOverflow: stores from more distinct PCs than
// the PC table holds, so dirty victims carry PCs past the full table
// and their writeback words escape.
func TestTapeWritebackPCTableOverflow(t *testing.T) {
	tape := formatCase(t, func() trace.Stream {
		return syntheticStream(6000, func(i uint64) trace.Access {
			return trace.Access{PC: 0x400000 + 4*(i%400), Addr: 64 * (i % 4096), Gap: 1, Kind: trace.Store}
		})
	})
	if cpu.TapeWords(tape, cpu.WritebackEscapeWord) == 0 {
		t.Error("no writeback escaped past a full PC table")
	}
}

// TestTapeUnalignedStreamFallsBack: an LLC access that is not 64-byte
// aligned (a byte-granular trace) does not fit the event word, so its
// tape fails and the replay reports an error with nil results, which
// sends callers to direct simulation.
func TestTapeUnalignedStreamFallsBack(t *testing.T) {
	cfg := smallConfig(1)
	stream := func() trace.Stream {
		return syntheticStream(100, func(i uint64) trace.Access {
			return trace.Access{PC: 0x400000, Addr: 64*i + 4}
		})
	}
	rs := cpu.NewReplaySystem(cfg, newLRU(cfg), []*cpu.Tape{cpu.NewTape(cfg, stream())})
	res, err := rs.Run()
	if !errors.Is(err, cpu.ErrUnaligned) || res != nil || !strings.Contains(err.Error(), "not 64-byte aligned") {
		t.Fatalf("replay of an unaligned stream = %v, %v; want an alignment error and nil results", res, err)
	}
	if cause := sim.FallbackCause(err); cause != "unaligned" {
		t.Errorf("the fallback counts under %q; want unaligned", cause)
	}
	if err := cpu.WalkTape(cfg, 0, cpu.NewTape(cfg, stream()), nopVisitor{}); err == nil ||
		!strings.Contains(err.Error(), "not 64-byte aligned") {
		t.Fatalf("profile walk of an unaligned stream's tape = %v; want an alignment error", err)
	}
	direct := cpu.NewSystem(cfg, newLRU(cfg), []trace.Stream{stream()}).Run()
	if direct[0].LLCAccesses != 100 {
		t.Fatalf("direct simulation of the unaligned stream made %d LLC accesses; want 100", direct[0].LLCAccesses)
	}
}

type nopVisitor struct{}

func (nopVisitor) Access(addr, pc uint64, kind trace.Kind, demand bool) {}
func (nopVisitor) Crossing(cr trace.Crossing) bool                      { return true }

// TestTapeBytesPerWord pins the encoding's size: a load-only stream
// with few PCs and short gaps records one word per event, and its tape
// costs 8 bytes per page slot, so a return to wider records fails.
func TestTapeBytesPerWord(t *testing.T) {
	const n = 3*cpu.TapePageWords + 100
	before := cpu.TapeBytes()
	tape := formatCase(t, func() trace.Stream {
		return syntheticStream(n, func(i uint64) trace.Access {
			return trace.Access{PC: 0x400000 + 4*(i%5), Addr: 64 * i, Gap: 3}
		})
	})
	events := cpu.TapeWords(tape, cpu.EventWord)
	if events != n {
		t.Fatalf("tape holds %d events; want one per access (%d)", events, n)
	}
	for _, k := range []cpu.TapeWord{cpu.EventEscapeWord, cpu.WritebackWord, cpu.WritebackEscapeWord} {
		if w := cpu.TapeWords(tape, k); w != 0 {
			t.Fatalf("tape holds %d words of kind %d; want event words only", w, k)
		}
	}
	pages := (events + cpu.TapePageWords - 1) / cpu.TapePageWords
	if got, want := cpu.TapeBytes()-before, int64(8*pages*cpu.TapePageWords); got != want {
		t.Errorf("tape of %d events costs %d bytes; want %d (%d pages of %d 8-byte words)",
			events, got, want, pages, cpu.TapePageWords)
	}
}
