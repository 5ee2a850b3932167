package cpu

// Integrity tests for the checksummed tape frames: corruption of the
// event or writeback records that replays read must be caught by the
// frame CRCs — killing the tape so replays degrade to direct simulation
// — and must never be replayed as truth.

import (
	"errors"
	"strings"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/failpoint"
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

// recordSome forces at least one extension so the tape has a sealed
// frame holding both event and writeback records.
func recordSome(t *testing.T, tape *Tape) {
	t.Helper()
	if _, err := tape.snapshot(0); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if events, wbs := TapeRecords(tape); events == 0 || wbs == 0 {
		t.Fatalf("tape recorded %d events, %d writebacks; want both", events, wbs)
	}
	if len(tape.frames) == 0 {
		t.Fatal("extension sealed no frame")
	}
}

// pageKinds names the two record lists a frame covers.
var pageKinds = []struct {
	name string
	wb   bool
}{{"event", false}, {"writeback", true}}

func TestTapeVerifyDetectsCorruption(t *testing.T) {
	for _, k := range pageKinds {
		t.Run(k.name, func(t *testing.T) {
			tape := NewTape(integrityConfig(), workload.MustByName("swim-like").Stream(7))
			recordSome(t, tape)
			if err := tape.Verify(); err != nil {
				t.Fatalf("pristine tape failed verification: %v", err)
			}

			before := TapeChecksumFails()
			events, wbs := TapeRecords(tape)
			n := events
			if k.wb {
				n = wbs
			}
			FlipTapeBit(tape, k.wb, n/2, 3) // bit rot mid-tape
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
	for _, k := range pageKinds {
		t.Run(k.name, func(t *testing.T) {
			tape := NewTape(integrityConfig(), workload.MustByName("hmmer-like").Stream(3))
			recordSome(t, tape)
			events, _ := TapeRecords(tape)
			FlipTapeBit(tape, k.wb, 0, 63)
			if _, err := tape.snapshot(events); err == nil ||
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
