package cpu

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"nucache/internal/failpoint"
	"nucache/internal/trace"
)

// Tapes are recorded lazily, in chunks: a replay that stalls on the end
// of a tape asks for more events, and the tape's recorder (which keeps
// its live stream and private-cache state) advances just far enough.
// That sizes every tape to what replays actually consume — a fast
// policy's cores stop at their budget crossing, and nothing is recorded
// past the last consumer's need plus one chunk — without guessing a
// slack factor up front.
const (
	// tapeChunkMin/Max bound the per-extension event count; chunks double
	// from Min to Max so tiny test tapes stay tiny and experiment-scale
	// tapes amortize the lock. Max stays modest because the final
	// extension overshoots the last consumer's need by up to one chunk —
	// events recorded (an L1/L2 simulation) but never replayed.
	tapeChunkMin = 4 << 10
	tapeChunkMax = 8 << 10
)

// DefaultTapeBudget caps the process-wide memory spent on filtered
// tapes. Past the cap, new tapes are refused (callers fall back to
// direct simulation); tapes already recording may grow to twice the cap
// before their replays are failed too, so in-flight work completes.
const DefaultTapeBudget = 512 << 20

// decEvent is one mirrored event, packed into 16 bytes so sequential
// replay touches a quarter of the cache lines a trace.FilteredEvent
// mirror would (the mirror working set of a many-core grid cell far
// exceeds the LLC, so every line touched is a memory stall):
//
//	w0: addr(40) | store(1) | wb(1) | cycleGapLow(22)
//	w1: pc(48) | cycleGapHigh(16)
//
// The address and PC widths are exactly the record guards' maxRawAddr/
// maxRawPC bounds (record.go), so packing never truncates; a cycle gap
// over 2^38 stops the mirror instead (recorder.mirror). Writeback
// victims live in a side list (wbRec) consumed sequentially: replay
// always reads a tape front to back, so the i'th wb-flagged event is
// the i'th wbRec.
type decEvent struct{ w0, w1 uint64 }

// wbRec is the writeback victim of one wb-flagged mirrored event.
type wbRec struct{ addr, pc uint64 }

const (
	decAddrBits = coreAddrShift // record guard: addr < 1<<40
	decPCBits   = corePCShift   // record guard: pc < 1<<48

	decStoreBit    = 1 << decAddrBits
	decWBBit       = 1 << (decAddrBits + 1)
	decGapLowShift = decAddrBits + 2
	decGapLowBits  = 64 - decGapLowShift
	decGapBits     = decGapLowBits + 64 - decPCBits

	decEventBytes = 16
	wbRecBytes    = 16
)

// decPageShift sizes the decode cache's pages (8192 events, 128KB;
// writeback side pages hold 4096 records, 64KB). Fixed-size pages are
// written into place and never reallocated, so growing the cache copies
// nothing and the pages (pointer-free) cost the garbage collector
// nothing to scan.
const (
	decPageShift = 13
	decPageSize  = 1 << decPageShift
	decPageMask  = decPageSize - 1

	wbPageShift = 12
	wbPageSize  = 1 << wbPageShift
	wbPageMask  = wbPageSize - 1
)

var (
	tapesRecorded     atomic.Int64
	tapeBytes         atomic.Int64
	tapeBudget        atomic.Int64
	tapeChecksumFails atomic.Int64

	// decBytes accounts the decoded-event caches separately from the
	// packed tapes. When it reaches the tape budget, tapes stop growing
	// their decode caches and replays stream-decode the packed buffer
	// instead — a transparent slowdown, never a fallback to direct
	// simulation.
	decBytes atomic.Int64

	tapeMu   sync.Mutex
	tapeMemo = map[string]*Tape{}
)

func init() { tapeBudget.Store(DefaultTapeBudget) }

// TapesRecorded returns the number of filtered tapes recorded by this
// process (exported as the traces_recorded expvar).
func TapesRecorded() int64 { return tapesRecorded.Load() }

// TapeBytes returns the packed bytes held by all filtered tapes
// (exported as the trace_bytes expvar).
func TapeBytes() int64 { return tapeBytes.Load() }

// TapeChecksumFails returns how many tape frames failed CRC
// verification (exported as the tape_checksum_fails expvar). Each
// failure kills its tape; replays fall back to direct simulation.
func TapeChecksumFails() int64 { return tapeChecksumFails.Load() }

// SetTapeBudget replaces the process-wide tape memory cap and returns
// the previous value. Intended for operators (flag) and tests.
func SetTapeBudget(n int64) int64 { return tapeBudget.Swap(n) }

// Tape is one core's recorded front end: a filtered trace plus the live
// recorder that extends it on demand. A tape is written by at most one
// goroutine at a time (under mu) and replayed by any number of
// concurrent cursors; the packed buffer is append-only, so snapshots
// handed to cursors stay valid as the tape grows.
type Tape struct {
	frontEnd frontEnd

	mu      sync.Mutex
	rec     *recorder // also owns the decoded-event mirror pages
	chunk   uint64
	dead    error // non-nil: tape unusable; replays fail over to direct
	counted int   // bytes already added to tapeBytes

	// Integrity frames: each tape extension CRC-32Cs the bytes it
	// appended, and frames are re-verified once, on the first snapshot
	// after their creation (a watermark, so verification work totals
	// O(tape) no matter how many replays share it). A mismatch — bit rot
	// in a long-lived process's tape memory — kills the tape; replays
	// degrade to direct simulation instead of replaying corrupt events.
	frames     []tapeFrame
	frameEnd   int // bytes covered by frames
	frameCheck int // frames verified so far
}

// tapeFrame is one extension's checksum: CRC-32C of the packed buffer
// from the previous frame's end to this one's.
type tapeFrame struct {
	end int
	crc uint32
}

var tapeCRCTable = crc32.MakeTable(crc32.Castagnoli)

// NewTape records stream's front end for cfg on demand. Most callers
// want AcquireTape (the process-wide memo); NewTape is for tests and
// one-off tapes.
func NewTape(cfg Config, stream trace.Stream) *Tape {
	return &Tape{
		frontEnd: frontEndOf(cfg),
		rec:      newRecorder(cfg, stream),
		chunk:    tapeChunkMin,
	}
}

// FrontEndKey canonicalizes the Config fields that determine a core's
// filtered tape: private geometry and latencies (they shape hit/miss
// outcomes and the policy-independent clock) and the warm-up/budget
// thresholds (they place the recorded crossings). LLC geometry, LLC and
// memory latencies, DRAM and the prefetch degree are deliberately
// excluded — they are replay-side — so one tape serves the whole policy
// grid and every LLC sweep.
func FrontEndKey(cfg Config) string {
	return frontEndOf(cfg).String()
}

// frontEnd is FrontEndKey's fields as a comparable value, so a replay
// can check its tapes without formatting a key per replay.
type frontEnd struct {
	l1Size, l1Ways, l1Line int
	l2Size, l2Ways, l2Line int
	l1Lat, l2Lat           uint64
	warm, budget           uint64
}

func frontEndOf(cfg Config) frontEnd {
	return frontEnd{
		cfg.L1.SizeBytes, cfg.L1.Ways, cfg.L1.LineBytes,
		cfg.L2.SizeBytes, cfg.L2.Ways, cfg.L2.LineBytes,
		cfg.L1Latency, cfg.L2Latency, cfg.WarmupInstr, cfg.InstrBudget,
	}
}

func (fe frontEnd) String() string {
	return fmt.Sprintf("l1=%d/%d/%d,l2=%d/%d/%d,lat=%d+%d,warm=%d,budget=%d",
		fe.l1Size, fe.l1Ways, fe.l1Line, fe.l2Size, fe.l2Ways, fe.l2Line,
		fe.l1Lat, fe.l2Lat, fe.warm, fe.budget)
}

// AcquireTape returns the process-wide shared tape for (id, front end),
// recording a new one on first use. id must identify the stream that
// open returns — benchmark name plus derived seed — and open must build
// a fresh stream (it is called at most once). Returns an error when the
// tape memory budget is exhausted; the caller then simulates directly.
func AcquireTape(id string, cfg Config, open func() trace.Stream) (*Tape, error) {
	key := id + "|" + FrontEndKey(cfg)
	tapeMu.Lock()
	defer tapeMu.Unlock()
	if t, ok := tapeMemo[key]; ok {
		return t, nil
	}
	if tapeBytes.Load() >= tapeBudget.Load() {
		return nil, fmt.Errorf("cpu: tape budget exhausted (%d of %d bytes)",
			tapeBytes.Load(), tapeBudget.Load())
	}
	t := NewTape(cfg, open())
	tapeMemo[key] = t
	tapesRecorded.Add(1)
	return t, nil
}

// LookupTape returns the memoized tape for (id, front end) when one has
// already been recorded, and nil otherwise. It never records: callers
// that will replay only once (alone-IPC denominators) use it to reuse a
// tape some mix already paid for, falling back to direct simulation
// instead of recording a tape nothing else would replay.
func LookupTape(id string, cfg Config) *Tape {
	key := id + "|" + FrontEndKey(cfg)
	tapeMu.Lock()
	defer tapeMu.Unlock()
	return tapeMemo[key]
}

// ResetTapes drops the process-wide tape memo and its byte accounting.
// For tests that need a cold cache.
func ResetTapes() {
	tapeMu.Lock()
	defer tapeMu.Unlock()
	for k, t := range tapeMemo {
		t.mu.Lock()
		tapeBytes.Add(-int64(t.counted))
		decBytes.Add(-int64(t.rec.decCounted))
		t.counted, t.rec.decCounted = 0, 0
		t.dead = fmt.Errorf("cpu: tape reset")
		t.mu.Unlock()
		delete(tapeMemo, k)
	}
}

// tapeView is one consistent snapshot of a tape handed to a replay core:
// the decoded-event prefix, the packed buffer backing it, and the
// crossing list. When the decode cache stopped short of the recorded
// events (decode budget exhausted), overflow is a cursor positioned at
// decCount for the core to stream-decode the rest itself.
type tapeView struct {
	decPages [][]decEvent
	wbPages  [][]wbRec
	decCount uint64
	events   uint64 // events recorded in the packed buffer
	buf      []byte
	cross    []trace.Crossing
	complete bool
	overflow trace.FilteredCursor // valid iff decCount < events
}

// snapshot returns the current readable state of the tape, extending it
// first when the caller has consumed everything recorded so far. decoded
// is the number of events the caller has already replayed.
func (t *Tape) snapshot(decoded uint64) (tapeView, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead != nil {
		return tapeView{}, t.dead
	}
	if err := t.verifyFrames(); err != nil {
		return tapeView{}, err
	}
	tr := t.rec.tr
	if tr.Events() <= decoded && !tr.Complete() {
		// Growing tapes stop being extended at twice the budget; replays
		// in flight fail over to direct simulation from here on.
		if tapeBytes.Load() >= 2*tapeBudget.Load() {
			t.dead = fmt.Errorf("cpu: tape budget exhausted while extending")
			return tapeView{}, t.dead
		}
		if err := failpoint.Inject("cpu.tape.extend"); err != nil {
			t.dead = err
			return tapeView{}, err
		}
		if err := t.rec.run(tr.Events() + t.chunk); err != nil {
			t.dead = err
			return tapeView{}, err
		}
		if t.chunk < tapeChunkMax {
			t.chunk *= 2
		}
		tapeBytes.Add(int64(tr.Bytes() - t.counted))
		t.counted = tr.Bytes()
		t.sealFrame()
	}
	buf, events, cross := tr.Snapshot()
	v := tapeView{
		decPages: t.rec.decPages, wbPages: t.rec.wbPages, decCount: t.rec.decCount,
		events: events, buf: buf, cross: cross,
		complete: tr.Complete(),
	}
	if v.decCount < events {
		// The mirror stopped at the decode budget; hand out a cursor
		// positioned exactly where it stopped for stream-decoding.
		v.overflow = trace.ResumeCursor(t.rec.stopOff, t.rec.stopAddr, t.rec.stopPC, v.decCount)
		v.overflow.Rebase(buf, events)
	}
	return v, nil
}

// sealFrame checksums the bytes the extension just appended. Called
// with t.mu held, right after the recorder ran.
func (t *Tape) sealFrame() {
	buf, _, _ := t.rec.tr.Snapshot()
	if len(buf) <= t.frameEnd {
		return
	}
	t.frames = append(t.frames, tapeFrame{
		end: len(buf),
		crc: crc32.Checksum(buf[t.frameEnd:len(buf)], tapeCRCTable),
	})
	t.frameEnd = len(buf)
}

// verifyFrames re-checks frames sealed by earlier extensions, each
// exactly once (watermark). Called with t.mu held. On a mismatch the
// tape is dead: cursors already holding snapshots of the corrupt bytes
// cannot be trusted either, so their replays error out and the whole
// simulation falls back to the direct engine.
func (t *Tape) verifyFrames() error {
	buf, _, _ := t.rec.tr.Snapshot()
	start := 0
	if t.frameCheck > 0 {
		start = t.frames[t.frameCheck-1].end
	}
	for ; t.frameCheck < len(t.frames); t.frameCheck++ {
		f := t.frames[t.frameCheck]
		if got := crc32.Checksum(buf[start:f.end], tapeCRCTable); got != f.crc {
			tapeChecksumFails.Add(1)
			t.dead = fmt.Errorf("cpu: tape frame %d (bytes %d..%d) checksum mismatch: %#x, recorded %#x",
				t.frameCheck, start, f.end, got, f.crc)
			return t.dead
		}
		start = f.end
	}
	return nil
}

// Verify re-checks every sealed frame immediately, regardless of the
// once-per-frame watermark — an on-demand integrity scan for tests and
// operators. A mismatch kills the tape exactly as the lazy check would.
func (t *Tape) Verify() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead != nil {
		return t.dead
	}
	buf, _, _ := t.rec.tr.Snapshot()
	start := 0
	for i, f := range t.frames {
		if got := crc32.Checksum(buf[start:f.end], tapeCRCTable); got != f.crc {
			tapeChecksumFails.Add(1)
			t.dead = fmt.Errorf("cpu: tape frame %d (bytes %d..%d) checksum mismatch: %#x, recorded %#x",
				i, start, f.end, got, f.crc)
			return t.dead
		}
		start = f.end
	}
	return nil
}
