package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, in []Access) []Access {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range in {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := Collect(r, -1)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	in := sample(100)
	out := roundTrip(t, in)
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("record %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(pcs, addrs []uint32, kinds []bool) bool {
		n := len(pcs)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		in := make([]Access, n)
		for i := 0; i < n; i++ {
			k := Load
			if kinds[i] {
				k = Store
			}
			in[i] = Access{PC: uint64(pcs[i]), Addr: uint64(addrs[i]) << 6, Kind: k, Gap: pcs[i] % 1000}
		}
		out := roundTrip(t, in)
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecCompactness(t *testing.T) {
	// Sequential access patterns should compress well below 24 bytes/record.
	in := make([]Access, 10000)
	for i := range in {
		in[i] = Access{PC: 0x400120, Addr: uint64(i) * 64, Kind: Load, Gap: 3}
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, a := range in {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	perRecord := float64(buf.Len()) / float64(len(in))
	if perRecord > 6 {
		t.Fatalf("%.1f bytes/record, want <= 6 for sequential trace", perRecord)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX\x01"))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad magic err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("NU"))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("short header err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("NUTR\x7f"))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad version err = %v", err)
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Access{PC: 100, Addr: 4096, Gap: 7}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()
	// Chop mid-record (header is 5 bytes; keep header + 1 byte).
	r, err := NewReader(bytes.NewReader(full[:6]))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record decoded")
	}
	if !errors.Is(r.Err(), ErrBadFormat) {
		t.Fatalf("Err = %v", r.Err())
	}
	// Next after error keeps returning false.
	if _, ok := r.Next(); ok {
		t.Fatal("stream continued after error")
	}
}

// TestReaderRejectsWideGap: a record whose gap field exceeds 32 bits,
// which Writer cannot produce, fails the stream instead of decoding a
// truncated gap. The widest gap Writer can write still round-trips.
func TestReaderRejectsWideGap(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Access{PC: 1, Addr: 64, Gap: math.MaxUint32}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	// A second record with zero deltas and a 33-bit gap.
	rec := binary.AppendUvarint(nil, 0)
	rec = binary.AppendUvarint(rec, 0)
	rec = binary.AppendUvarint(rec, uint64(math.MaxUint32+1)<<1)
	r, err := NewReader(bytes.NewReader(append(buf.Bytes(), rec...)))
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := r.Next(); !ok || a.Gap != math.MaxUint32 {
		t.Fatalf("widest writable gap: got %+v ok=%v err=%v", a, ok, r.Err())
	}
	if a, ok := r.Next(); ok {
		t.Fatalf("33-bit gap decoded as %+v", a)
	}
	if !errors.Is(r.Err(), ErrBadFormat) {
		t.Fatalf("Err = %v", r.Err())
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag round-trip %d -> %d", v, got)
		}
	}
}
