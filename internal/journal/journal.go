// Package journal implements the crash-safe checkpoint log behind
// resumable experiment sweeps: an append-only file of CRC-checksummed
// records, flushed through to disk per append, that reopens cleanly
// after a crash at any byte — a torn final record (the process died
// mid-write) is detected by framing or checksum, counted, and truncated
// away, so the journal always resumes from the last fully durable
// record.
//
// On-disk format, per record:
//
//	length  uint32 little-endian (payload bytes)
//	payload length bytes (opaque to the journal; sweeps store JSON)
//	crc     uint32 little-endian CRC-32C over length+payload
//
// There is no file header: an empty file is an empty journal, and the
// sequential framing means a corrupt record also severs everything
// after it — which is exactly the durability contract (records are
// only ever appended, so a mid-file corruption can't be "skipped"
// without guessing at framing).
package journal

import (
	"encoding/binary"
	"expvar"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"nucache/internal/failpoint"
)

// MaxRecord bounds one record's payload (64MB): a length field past it
// is treated as corruption, not an allocation request.
const MaxRecord = 64 << 20

// Journal expvars, published under /debug/vars in processes that serve
// HTTP and reported in nucache-bench's journal summary line.
var (
	// Records counts records appended by this process (all journals).
	Records = expvar.NewInt("nucache_journal_records")
	// Resumed counts records replayed from disk on Open.
	Resumed = expvar.NewInt("nucache_journal_resumed")
	// TornTails counts torn or corrupt tails truncated on Open.
	TornTails = expvar.NewInt("nucache_journal_torn_tails")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is an append-only checkpoint log. Append is safe for
// concurrent use; Open/Close are not (open once, close once).
type Journal struct {
	// mu serializes appends; it also orders the torn-write recovery — a
	// failed append truncates back to off before the next one starts.
	mu       sync.Mutex
	f        *os.File
	path     string
	off      int64 // end of the last durable record
	appended int
	resumed  int
	torn     int
}

// Create opens a fresh journal at path, truncating any previous one.
func Create(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	return &Journal{f: f, path: path}, nil
}

// Open opens (creating if absent) the journal at path and replays every
// durable record through fn, in append order. A torn or corrupt tail —
// the signature of a crash mid-append — is truncated away and counted;
// everything before it replays normally. The payload slice passed to fn
// is only valid during the call.
//
// fn returning an error aborts the open (the record itself is intact;
// the caller's replay failed).
func Open(path string, fn func(payload []byte) error) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Create(path)
		}
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j := &Journal{path: path}
	off := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > MaxRecord || off+8+n > len(data) {
			break // torn length or truncated payload
		}
		body := data[off : off+4+n]
		crc := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.Checksum(body, crcTable) != crc {
			break // torn or bit-flipped record
		}
		if fn != nil {
			if err := fn(body[4:]); err != nil {
				return nil, fmt.Errorf("journal: replay %s record %d: %w", path, j.resumed, err)
			}
		}
		j.resumed++
		off += 8 + n
	}
	Resumed.Add(int64(j.resumed))
	if off < len(data) {
		j.torn++
		TornTails.Add(1)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: reopen %s: %w", path, err)
	}
	// Truncating the torn tail (a no-op when off == len) keeps the next
	// append from landing after garbage, which would sever it from every
	// future reopen.
	if err := f.Truncate(int64(off)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
	}
	j.f = f
	j.off = int64(off)
	return j, nil
}

// Append writes one record and flushes it to disk before returning: a
// crash after Append returns cannot lose the record, and a crash during
// it leaves a torn tail the next Open truncates. On any failure the
// file is rewound to the last durable record, so a partially written
// record never poisons subsequent appends within this process either.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	if err := failpoint.Inject("journal.append"); err != nil {
		return err
	}
	body := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(body, uint32(len(payload)))
	copy(body[4:], payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(body, crcTable))

	j.mu.Lock()
	defer j.mu.Unlock()
	// Two writes on purpose: the journal.append.torn site sits between
	// them, so an exit-armed chaos run dies with a half-written record on
	// disk — the torn tail the reopen path must absorb. A mid-record
	// failure (injected or real, e.g. disk full) rewinds to the last
	// durable record so later appends never land after garbage.
	if _, err := j.f.WriteAt(body, j.off); err != nil {
		j.rewind()
		return fmt.Errorf("journal: write %s: %w", j.path, err)
	}
	if err := failpoint.Inject("journal.append.torn"); err != nil {
		j.rewind()
		return err
	}
	if _, err := j.f.WriteAt(tail[:], j.off+int64(len(body))); err != nil {
		j.rewind()
		return fmt.Errorf("journal: write %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		j.rewind()
		return fmt.Errorf("journal: sync %s: %w", j.path, err)
	}
	j.off += int64(len(body) + 4)
	j.appended++
	Records.Add(1)
	return nil
}

// rewind discards a partially written record after a failure,
// best-effort: if even the truncate fails the torn tail stays on disk,
// where the next Open's scan absorbs it. Called with mu held.
func (j *Journal) rewind() {
	_ = j.f.Truncate(j.off)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Records reports how many durable records the journal holds (resumed
// on open plus appended since).
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumed + j.appended
}

// ResumedRecords reports how many records were replayed on Open.
func (j *Journal) ResumedRecords() int { return j.resumed }

// TornTailsSeen reports how many torn/corrupt tails this open truncated
// (0 or 1; kept as a count for the summary line's symmetry).
func (j *Journal) TornTailsSeen() int { return j.torn }

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: sync %s: %w", j.path, err)
	}
	return j.f.Close()
}
