package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary trace format:
//
//	magic "NUTR" | version byte | records...
//
// Each record is delta-encoded against the previous one to keep traces
// small: zig-zag varint PC delta, zig-zag varint address delta, then a
// varint holding (gap << 1 | kind).
const (
	formatMagic   = "NUTR"
	formatVersion = 1
)

// ErrBadFormat reports a malformed or truncated binary trace.
var ErrBadFormat = errors.New("trace: bad format")

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer serializes accesses to the binary trace format.
type Writer struct {
	w        *bufio.Writer
	prevPC   uint64
	prevAddr uint64
	started  bool
	buf      [3 * binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer targeting w. Call Flush when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(formatMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(formatVersion); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one access record.
func (w *Writer) Write(a Access) error {
	n := binary.PutUvarint(w.buf[:], zigzag(int64(a.PC-w.prevPC)))
	n += binary.PutUvarint(w.buf[n:], zigzag(int64(a.Addr-w.prevAddr)))
	n += binary.PutUvarint(w.buf[n:], uint64(a.Gap)<<1|uint64(a.Kind&1))
	w.prevPC, w.prevAddr = a.PC, a.Addr
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Flush drains buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes a binary trace produced by Writer. It implements Stream.
type Reader struct {
	r        *bufio.Reader
	prevPC   uint64
	prevAddr uint64
	err      error
}

// NewReader validates the header and returns a streaming decoder.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(formatMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadFormat, err)
	}
	if string(magic) != formatMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: missing version: %v", ErrBadFormat, err)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, ver)
	}
	return &Reader{r: br}, nil
}

// Next implements Stream. Decoding errors terminate the stream; check Err.
func (r *Reader) Next() (Access, bool) {
	if r.err != nil {
		return Access{}, false
	}
	dpc, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err != io.EOF {
			r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		return Access{}, false
	}
	daddr, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: truncated record: %v", ErrBadFormat, err)
		return Access{}, false
	}
	gk, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: truncated record: %v", ErrBadFormat, err)
		return Access{}, false
	}
	if gk>>1 > math.MaxUint32 {
		// Writer cannot produce this: Access.Gap is 32 bits.
		r.err = fmt.Errorf("%w: gap %d exceeds 32 bits", ErrBadFormat, gk>>1)
		return Access{}, false
	}
	r.prevPC += uint64(unzigzag(dpc))
	r.prevAddr += uint64(unzigzag(daddr))
	return Access{
		PC:   r.prevPC,
		Addr: r.prevAddr,
		Kind: Kind(gk & 1),
		Gap:  uint32(gk >> 1),
	}, true
}

// Err reports any decoding error encountered (nil on clean EOF).
func (r *Reader) Err() error { return r.err }
