package cpu

// Integrity tests for the checksummed tape frames: corruption of any
// kind of word that replays read must be caught by the
// frame CRCs — killing the tape so replays degrade to direct simulation
// — and must never be replayed as truth.

import (
	"errors"
	"strings"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/failpoint"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

func integrityConfig() Config {
	return Config{
		Cores:       1,
		L1:          cache.Config{SizeBytes: 2 << 10, Ways: 2, LineBytes: 64},
		LLC:         cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64},
		L1Latency:   1,
		LLCLatency:  10,
		MemLatency:  100,
		InstrBudget: 30_000,
	}
}

// escapingStream stores with 300 distinct PCs to a stream of lines, and
// every 64th access follows a 2^21-instruction gap: its tape holds
// escaped event and writeback words beside plain ones. The gaps exceed
// integrityConfig's budget, so tapes of it run with no budget.
func escapingStream() trace.Stream {
	var i uint64
	return trace.FuncStream(func() (trace.Access, bool) {
		i++
		a := trace.Access{PC: 0x400000 + 4*(i%300), Addr: 0x100000 + 64*(i%4096), Kind: trace.Store}
		if i%64 == 0 {
			a.Gap = 1 << 21
		}
		return a, true
	})
}

func unbudgeted(cfg Config) Config {
	cfg.InstrBudget = 0
	return cfg
}

// recordSome forces at least one extension so the tape has a sealed
// frame holding words of every kind.
func recordSome(t *testing.T, tape *Tape) {
	t.Helper()
	if _, err := tape.snapshot(0); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, k := range wordKinds {
		if TapeWords(tape, k.kind) == 0 {
			t.Fatalf("tape recorded no %s words", k.name)
		}
	}
	if len(tape.frames) == 0 {
		t.Fatal("extension sealed no frame")
	}
}

// wordKinds names the kinds of word a frame covers.
var wordKinds = []struct {
	name string
	kind TapeWord
}{
	{"event", EventWord}, {"event escape", EventEscapeWord},
	{"writeback", WritebackWord}, {"writeback escape", WritebackEscapeWord},
}

func TestTapeVerifyDetectsCorruption(t *testing.T) {
	for _, k := range wordKinds {
		t.Run(k.name, func(t *testing.T) {
			tape := NewTape(unbudgeted(integrityConfig()), escapingStream())
			recordSome(t, tape)
			if err := tape.Verify(); err != nil {
				t.Fatalf("pristine tape failed verification: %v", err)
			}

			before := TapeChecksumFails()
			FlipTapeBit(tape, k.kind, TapeWords(tape, k.kind)/2, 3) // bit rot mid-tape
			err := tape.Verify()
			if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("Verify on corrupt tape = %v, want checksum mismatch", err)
			}
			if TapeChecksumFails() != before+1 {
				t.Fatalf("TapeChecksumFails = %d, want %d", TapeChecksumFails(), before+1)
			}
			// The tape is dead: every later snapshot fails with the same
			// error, so replays fall back to direct simulation instead of
			// replaying corrupt events.
			if _, serr := tape.snapshot(0); serr == nil {
				t.Fatal("snapshot succeeded on a dead tape")
			}
		})
	}
}

// TestTapeLazyFrameCheckCatchesCorruption corrupts a record between two
// snapshots: the watermark verification on the next snapshot (not an
// explicit Verify call) must catch it.
func TestTapeLazyFrameCheckCatchesCorruption(t *testing.T) {
	for _, k := range wordKinds {
		t.Run(k.name, func(t *testing.T) {
			tape := NewTape(unbudgeted(integrityConfig()), escapingStream())
			recordSome(t, tape)
			FlipTapeBit(tape, k.kind, 0, 63)
			if _, err := tape.snapshot(TapeWords(tape, EventWord)); err == nil ||
				!strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("lazy frame check missed corruption: %v", err)
			}
		})
	}
}

// TestTapeExtendFailpoint arms the cpu.tape.extend site: the extension
// fails, the tape dies, and — exactly like a real mid-record fault —
// every replay of it reports an error instead of partial data.
func TestTapeExtendFailpoint(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm("cpu.tape.extend", "error"); err != nil {
		t.Fatal(err)
	}
	tape := NewTape(integrityConfig(), workload.MustByName("art-like").Stream(7))
	if _, err := tape.snapshot(0); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("snapshot err = %v, want injected", err)
	}
	failpoint.Reset()
	if _, err := tape.snapshot(0); err == nil {
		t.Fatal("tape recovered after a failed extension; must stay dead")
	}
}
