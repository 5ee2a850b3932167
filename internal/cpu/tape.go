package cpu

import (
	"container/list"
	"errors"
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

// DefaultTapeBudget caps the page bytes of the process-wide tape memo.
// AcquireTape admits a new tape only once TapeBytes is under the cap,
// evicting the least recently acquired tapes first; past that, only the
// tapes of running replays and profile walks grow.
const DefaultTapeBudget = 1 << 30

// A tape is a sequence of 8-byte words in fixed-size pages. Each
// recorded event is one event word, then the writeback word of its
// private victim when the event carries one:
//
//	event:     line(34) | store(1) | wb(1) | pcIndex(8) | cycleGap(20)
//	writeback: line(34) | 0(2)     | pcIndex(8) | 0(20)
//
// (low bits first). A line is an address shifted right by lineShift: the
// record guards (record.go) fail a tape on an address of 2^40 or more
// and on an event address that is not 64-byte aligned, and writeback
// victims are line addresses by construction. pcIndex names an entry
// of the tape's PC table, which takes the first 255 distinct PCs the
// recorder sees (real tapes have at most a handful).
//
// pcIndex 255 is an escape. An escaped event word's gap field is zero,
// and its next two words hold the event's full PC and full cycle gap;
// events escape when their PC is not in a full table or their gap is
// 2^20 cycles or more. An escaped writeback word's next word holds the
// victim's full PC. Readers keep a word cursor beside the event
// ordinal, since an event spans one to five words.
const (
	lineBits   = 34
	lineMask   = 1<<lineBits - 1
	storeBit   = 1 << lineBits
	wbBit      = 1 << (lineBits + 1)
	pcIdxShift = lineBits + 2
	gapShift   = pcIdxShift + 8
	gapBits    = 64 - gapShift

	escIdx      = 0xff // pcIndex of an escape
	escBits     = escIdx << pcIdxShift
	pcTableSize = escIdx // PCs a tape's table holds
	wordBytes   = 8
)

// pcTable is a tape's PC table, sized so a uint8 pcIndex always lands
// inside it (entry escIdx stays zero).
type pcTable [escIdx + 1]uint64

// Pages hold 8192 words (64 KB). Fixed-size pages are written into
// place and never reallocated, so growing a tape copies nothing, and
// the pages (pointer-free) cost the garbage collector nothing to scan.
const (
	pageShift = 13
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type tapePage [pageWords]uint64

var (
	tapesRecorded     atomic.Int64
	tapesEvicted      atomic.Int64
	tapeBytes         atomic.Int64
	tapeBudget        atomic.Int64
	tapeChecksumFails atomic.Int64

	tapeMu    sync.Mutex
	tapeMemo  = map[string]*list.Element{}
	tapeOrder = list.New() // of *Tape; front = most recently acquired
)

func init() { tapeBudget.Store(DefaultTapeBudget) }

// TapesRecorded returns the number of filtered tapes recorded by this
// process (exported as the traces_recorded expvar).
func TapesRecorded() int64 { return tapesRecorded.Load() }

// TapesEvicted returns the number of tapes evicted from the memo
// (exported as the traces_evicted expvar).
func TapesEvicted() int64 { return tapesEvicted.Load() }

// TapeBytes returns the page bytes held by the tape memo and by
// NewTape's one-off tapes (exported as the trace_bytes expvar). An
// evicted tape's pages leave it.
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
	key      string // AcquireTape's memo key; "" for NewTape's tapes

	mu       sync.Mutex
	rec      *recorder // owns the pages and crossings
	chunk    uint64
	dead     error // non-nil: tape unusable; replays fail over to direct
	counted  int   // bytes already added to tapeBytes
	detached bool  // evicted: outside tapeBytes from here on

	// Integrity frames: each tape extension CRC-32Cs the words and PC
	// table entries it appended, and frames are re-verified once, on
	// the first snapshot after their creation (a watermark, so
	// verification work totals O(tape) no matter how many replays share
	// it). A mismatch — bit rot in a long-lived process's tape memory —
	// kills the tape; replays degrade to direct simulation instead of
	// replaying corrupt events.
	frames     []tapeFrame
	frameCheck int // frames verified so far

	// corrupt is set, with dead, when a frame fails its check. It is
	// read without mu, so a memo hit never waits on an extension.
	corrupt atomic.Bool
}

// tapeFrame is one extension's checksum: CRC-32C of the words from the
// previous frame's watermarks to this one's, followed by the PC table
// entries over the same span.
type tapeFrame struct {
	events, words uint64
	pcs           int
	crc           uint32
}

var tapeCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptTape: a tape frame failed its CRC check (see verifyFrames).
var ErrCorruptTape = errors.New("cpu: tape checksum mismatch")

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
// recording a new one on first use and in place of a memoized tape that
// failed its checksum. id must identify the stream that open returns —
// benchmark name plus derived seed — and open must build a fresh stream
// (it is called at most once per recording). Before it admits a new
// tape, AcquireTape evicts the least recently acquired tapes until
// TapeBytes is under the cap.
func AcquireTape(id string, cfg Config, open func() trace.Stream) *Tape {
	key := id + "|" + FrontEndKey(cfg)
	tapeMu.Lock()
	defer tapeMu.Unlock()
	if t := memoHit(key); t != nil {
		return t
	}
	for tapeBytes.Load() >= tapeBudget.Load() && tapeOrder.Len() > 0 {
		evictTape(tapeOrder.Back())
	}
	t := NewTape(cfg, open())
	t.key = key
	tapeMemo[key] = tapeOrder.PushFront(t)
	tapesRecorded.Add(1)
	return t
}

// LookupTape returns the memoized tape for (id, front end) when one has
// been recorded and not yet evicted, and nil otherwise; a hit counts as
// a use for eviction. It never records: callers that will replay only
// once (alone-IPC denominators) use it to reuse a tape some mix already
// paid for, simulating directly instead of recording a tape nothing
// else would replay.
func LookupTape(id string, cfg Config) *Tape {
	key := id + "|" + FrontEndKey(cfg)
	tapeMu.Lock()
	defer tapeMu.Unlock()
	return memoHit(key)
}

// memoHit returns the memoized tape for key and marks it used, or nil
// when there is none. A tape that failed its checksum is evicted
// instead: a fresh recording of the same stream is sound, whereas a
// tape dead for any other reason (an LLC-quiet core, an address no tape
// word holds) would die the same way again and stays as the cached
// answer. Called with tapeMu held.
func memoHit(key string) *Tape {
	el, ok := tapeMemo[key]
	if !ok {
		return nil
	}
	t := el.Value.(*Tape)
	if t.corrupt.Load() {
		evictTape(el)
		return nil
	}
	tapeOrder.MoveToFront(el)
	return t
}

// ResetTapes evicts every tape in the memo. For tests and benchmarks
// that need a cold memo.
func ResetTapes() {
	tapeMu.Lock()
	defer tapeMu.Unlock()
	for tapeOrder.Len() > 0 {
		evictTape(tapeOrder.Back())
	}
}

// evictTape drops one tape from the memo and detaches it: its pages
// leave TapeBytes and its later growth goes uncharged. Replays and
// profile walks already holding it finish on it, and its pages are
// freed with the last of them. Called with tapeMu held.
func evictTape(el *list.Element) {
	t := tapeOrder.Remove(el).(*Tape)
	delete(tapeMemo, t.key)
	t.mu.Lock()
	tapeBytes.Add(-int64(t.counted))
	t.counted = 0
	t.detached = true
	t.mu.Unlock()
	tapesEvicted.Add(1)
}

// tapeView is one consistent snapshot of a tape handed to a replay core:
// the pages, the PC table, the event count they hold, and the crossing
// list.
type tapeView struct {
	pages    []*tapePage
	pcs      *pcTable
	events   uint64
	cross    []trace.Crossing
	complete bool
}

// event decodes the event whose first word is word w into ev, its
// writeback victim included when it has HasWB set, and returns the word
// after it.
func (v *tapeView) event(w uint64, ev *trace.FilteredEvent) uint64 {
	x := v.word(w)
	ev.Addr = x & lineMask << lineShift
	ev.Kind = trace.Kind(x >> lineBits & 1)
	ev.HasWB = x&wbBit != 0
	ev.PC, ev.CycleGap = v.pcs[uint8(x>>pcIdxShift)], x>>gapShift
	w++
	if x&escBits == escBits {
		ev.PC, ev.CycleGap = v.word(w), v.word(w+1)
		w += 2
	}
	if !ev.HasWB {
		return w
	}
	y := v.word(w)
	ev.WBAddr = y & lineMask << lineShift
	ev.WBPC = v.pcs[uint8(y>>pcIdxShift)]
	w++
	if y&escBits == escBits {
		ev.WBPC = v.word(w)
		w++
	}
	return w
}

// word returns word i. A well-formed tape never reads past its pages;
// a word of a corrupt tape that does reads as zero rather than panic,
// and the tape's frame check fails it at the next snapshot.
func (v *tapeView) word(i uint64) uint64 {
	if p := i >> pageShift; p < uint64(len(v.pages)) {
		return v.pages[p][i&pageMask]
	}
	return 0
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
		if !t.detached {
			tapeBytes.Add(int64(r.bytes - t.counted))
			t.counted = r.bytes
		}
		t.sealFrame()
	}
	return tapeView{
		pages: r.pages, pcs: &r.pcs, events: r.events,
		cross: r.crossings, complete: r.complete,
	}, nil
}

// sealFrame checksums the words the extension just appended. Called
// with t.mu held, right after the recorder ran.
func (t *Tape) sealFrame() {
	var prev tapeFrame
	if n := len(t.frames); n > 0 {
		prev = t.frames[n-1]
	}
	f := tapeFrame{events: t.rec.events, words: t.rec.words, pcs: t.rec.npcs}
	if f.events == prev.events {
		return
	}
	f.crc = t.rec.frameCRC(prev, f)
	t.frames = append(t.frames, f)
}

// frameCRC checksums the words and PC table entries between two
// frames' watermarks, reading the pointer-free pages in place.
func (r *recorder) frameCRC(from, to tapeFrame) uint32 {
	var crc uint32
	for lo := from.words; lo < to.words; {
		n := min(to.words-lo, pageWords-lo&pageMask)
		crc = crc32.Update(crc, tapeCRCTable, wordBytesOf(r.pages[lo>>pageShift][lo&pageMask:][:n]))
		lo += n
	}
	return crc32.Update(crc, tapeCRCTable, wordBytesOf(r.pcs[from.pcs:to.pcs]))
}

// wordBytesOf returns the memory of ws as bytes.
func wordBytesOf(ws []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ws))), len(ws)*wordBytes)
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
			t.corrupt.Store(true)
			t.dead = fmt.Errorf("%w in frame %d (events %d..%d): %#x, recorded %#x",
				ErrCorruptTape, i, prev.events, f.events, got, f.crc)
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
