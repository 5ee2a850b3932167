package cpu

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"unsafe"

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

// DefaultTapeBudget caps the process-wide memory spent on tape pages.
// Past the cap, new tapes are refused (callers fall back to direct
// simulation); tapes already recording may grow to twice the cap
// before their replays are failed too, so in-flight work completes.
const DefaultTapeBudget = 1 << 30

// evRec is one recorded event, packed into 16 bytes so sequential
// replay touches a quarter of the cache lines a page of
// trace.FilteredEvent structs would (the tape working set of a
// many-core grid cell far exceeds the LLC, so every line touched is a
// memory stall):
//
//	w0: addr(40) | store(1) | wb(1) | cycleGapLow(22)
//	w1: pc(48) | cycleGapHigh(16)
//
// The address and PC widths are exactly the record guards' maxRawAddr/
// maxRawPC bounds (record.go), and a cycle gap of 2^38 or more fails
// the tape, so packing never truncates. Writeback victims live in a
// side list (wbRec) consumed sequentially: replay always reads a tape
// front to back, so the i'th wb-flagged event is the i'th wbRec.
type evRec struct{ w0, w1 uint64 }

// wbRec is the writeback victim of one wb-flagged event.
type wbRec struct{ addr, pc uint64 }

const (
	recAddrBits = coreAddrShift // record guard: addr < 1<<40
	recPCBits   = corePCShift   // record guard: pc < 1<<48

	recStoreBit    = 1 << recAddrBits
	recWBBit       = 1 << (recAddrBits + 1)
	recGapLowShift = recAddrBits + 2
	recGapLowBits  = 64 - recGapLowShift
	recGapBits     = recGapLowBits + 64 - recPCBits

	evRecBytes = 16
	wbRecBytes = 16
)

// evPageShift sizes the tape's event pages (8192 events, 128KB;
// writeback side pages hold 4096 records, 64KB). Fixed-size pages are
// written into place and never reallocated, so growing a tape copies
// nothing and the pages (pointer-free) cost the garbage collector
// nothing to scan.
const (
	evPageShift = 13
	evPageSize  = 1 << evPageShift
	evPageMask  = evPageSize - 1

	wbPageShift = 12
	wbPageSize  = 1 << wbPageShift
	wbPageMask  = wbPageSize - 1
)

var (
	tapesRecorded     atomic.Int64
	tapeBytes         atomic.Int64
	tapeBudget        atomic.Int64
	tapeChecksumFails atomic.Int64

	tapeMu   sync.Mutex
	tapeMemo = map[string]*Tape{}
)

func init() { tapeBudget.Store(DefaultTapeBudget) }

// TapesRecorded returns the number of filtered tapes recorded by this
// process (exported as the traces_recorded expvar).
func TapesRecorded() int64 { return tapesRecorded.Load() }

// TapeBytes returns the page bytes held by all tapes (exported as the
// trace_bytes expvar).
func TapeBytes() int64 { return tapeBytes.Load() }

// TapeChecksumFails returns how many tape frames failed CRC
// verification (exported as the tape_checksum_fails expvar). Each
// failure kills its tape; replays fall back to direct simulation.
func TapeChecksumFails() int64 { return tapeChecksumFails.Load() }

// SetTapeBudget replaces the process-wide tape memory cap and returns
// the previous value. Intended for tests and benchmarks.
func SetTapeBudget(n int64) int64 { return tapeBudget.Swap(n) }

// Tape is one core's recorded front end: the event pages plus the live
// recorder that extends them on demand. A tape is written by at most one
// goroutine at a time (under mu) and replayed by any number of
// concurrent cursors; pages are append-only, so views handed to cursors
// stay valid as the tape grows.
type Tape struct {
	frontEnd frontEnd

	mu      sync.Mutex
	rec     *recorder // owns the pages and crossings
	chunk   uint64
	dead    error // non-nil: tape unusable; replays fail over to direct
	counted int   // bytes already added to tapeBytes

	// Integrity frames: each tape extension CRC-32Cs the event and
	// writeback records it appended, and frames are re-verified once, on
	// the first snapshot after their creation (a watermark, so
	// verification work totals O(tape) no matter how many replays share
	// it). A mismatch — bit rot in a long-lived process's tape memory —
	// kills the tape; replays degrade to direct simulation instead of
	// replaying corrupt events.
	frames     []tapeFrame
	frameCheck int // frames verified so far
}

// tapeFrame is one extension's checksum: CRC-32C of the event records
// from the previous frame's watermarks to this one's, followed by the
// writeback records over the same span.
type tapeFrame struct {
	events, wbs uint64
	crc         uint32
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
		t.counted = 0
		t.dead = fmt.Errorf("cpu: tape reset")
		t.mu.Unlock()
		delete(tapeMemo, k)
	}
}

// tapeView is one consistent snapshot of a tape handed to a replay core:
// the event and writeback pages, the event count they hold, and the
// crossing list.
type tapeView struct {
	evPages  [][]evRec
	wbPages  [][]wbRec
	events   uint64
	cross    []trace.Crossing
	complete bool
}

// event unpacks event i into ev. An event with HasWB set takes its
// victim from the next unread writeback record (victim).
func (v *tapeView) event(i uint64, ev *trace.FilteredEvent) {
	r := &v.evPages[i>>evPageShift][i&evPageMask]
	ev.Addr = r.w0 & (1<<recAddrBits - 1)
	ev.PC = r.w1 & (1<<recPCBits - 1)
	ev.CycleGap = r.w0>>recGapLowShift | r.w1>>recPCBits<<recGapLowBits
	ev.Kind = trace.Load
	if r.w0&recStoreBit != 0 {
		ev.Kind = trace.Store
	}
	ev.HasWB = r.w0&recWBBit != 0
}

// victim unpacks writeback record j into ev's victim fields.
func (v *tapeView) victim(j uint64, ev *trace.FilteredEvent) {
	r := &v.wbPages[j>>wbPageShift][j&wbPageMask]
	ev.WBAddr, ev.WBPC = r.addr, r.pc
}

// snapshot returns the current readable state of the tape, extending it
// first when the caller has consumed everything recorded so far. consumed
// is the number of events the caller has already read.
func (t *Tape) snapshot(consumed uint64) (tapeView, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead != nil {
		return tapeView{}, t.dead
	}
	if err := t.verifyFrames(); err != nil {
		return tapeView{}, err
	}
	r := t.rec
	if r.events <= consumed && !r.complete {
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
		if err := r.run(r.events + t.chunk); err != nil {
			t.dead = err
			return tapeView{}, err
		}
		if t.chunk < tapeChunkMax {
			t.chunk *= 2
		}
		tapeBytes.Add(int64(r.bytes - t.counted))
		t.counted = r.bytes
		t.sealFrame()
	}
	return tapeView{
		evPages: r.evPages, wbPages: r.wbPages, events: r.events,
		cross: r.crossings, complete: r.complete,
	}, nil
}

// sealFrame checksums the records the extension just appended. Called
// with t.mu held, right after the recorder ran.
func (t *Tape) sealFrame() {
	var prev tapeFrame
	if n := len(t.frames); n > 0 {
		prev = t.frames[n-1]
	}
	f := tapeFrame{events: t.rec.events, wbs: t.rec.wbs}
	if f.events == prev.events {
		return
	}
	f.crc = t.rec.frameCRC(prev, f)
	t.frames = append(t.frames, f)
}

// frameCRC checksums the records between two frames' watermarks.
func (r *recorder) frameCRC(from, to tapeFrame) uint32 {
	crc := pageCRC(0, r.evPages, evPageShift, from.events, to.events)
	return pageCRC(crc, r.wbPages, wbPageShift, from.wbs, to.wbs)
}

// pageCRC folds records [lo, hi) of pages of 1<<shift records into crc,
// reading the pointer-free records' memory in place.
func pageCRC[T evRec | wbRec](crc uint32, pages [][]T, shift uint, lo, hi uint64) uint32 {
	mask := uint64(1)<<shift - 1
	for lo < hi {
		p := pages[lo>>shift]
		n := min(hi-lo, mask+1-lo&mask)
		recs := p[lo&mask : lo&mask+n]
		b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(recs))), len(recs)*int(unsafe.Sizeof(recs[0])))
		crc = crc32.Update(crc, tapeCRCTable, b)
		lo += n
	}
	return crc
}

// verifyFrames re-checks frames sealed by earlier extensions, each
// exactly once (watermark). Called with t.mu held. On a mismatch the
// tape is dead: cursors already holding views of the corrupt records
// cannot be trusted either, so their replays error out and the whole
// simulation falls back to the direct engine.
func (t *Tape) verifyFrames() error {
	n, err := t.checkFrames(t.frameCheck)
	t.frameCheck = n
	return err
}

// checkFrames verifies frames from index i on and returns the index of
// the first frame left unverified (len(frames) on success). Called with
// t.mu held; a mismatch kills the tape.
func (t *Tape) checkFrames(i int) (int, error) {
	var prev tapeFrame
	if i > 0 {
		prev = t.frames[i-1]
	}
	for ; i < len(t.frames); i++ {
		f := t.frames[i]
		if got := t.rec.frameCRC(prev, f); got != f.crc {
			tapeChecksumFails.Add(1)
			t.dead = fmt.Errorf("cpu: tape frame %d (events %d..%d) checksum mismatch: %#x, recorded %#x",
				i, prev.events, f.events, got, f.crc)
			return i, t.dead
		}
		prev = f
	}
	return i, nil
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
	_, err := t.checkFrames(0)
	return err
}
