package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// pinAccesses is more than four rounds of the largest model
// (libquantum-like, 65,536 accesses per round).
const pinAccesses = 300_000

// streamPins holds the FNV-1a digest of the first pinAccesses accesses
// (PC, address, kind and gap, little-endian) of every benchmark at seeds 1
// and 7. Any change to a generator or to how rounds are buffered that
// moves one access shows up here, not only in the few benchmarks the sim
// goldens run.
var streamPins = map[string][2]uint64{
	"ammp-like":       {0x8fb7becb1b12d805, 0x8fb7becb1b12d805},
	"art-like":        {0xee20c7650b4bb105, 0xee20c7650b4bb105},
	"bzip2-like":      {0x36e876649b476c65, 0x36e876649b476c65},
	"equake-like":     {0xb87e9cf9c5751c25, 0xb87e9cf9c5751c25},
	"facerec-like":    {0x7c64b3ecc9bfb935, 0x7c64b3ecc9bfb935},
	"gcc-like":        {0x6fc972bdc3136325, 0x6fc972bdc3136325},
	"hmmer-like":      {0x837bd8a51132372d, 0x837bd8a51132372d},
	"libquantum-like": {0x7007fde01d32c795, 0x7007fde01d32c795},
	"mcf-like":        {0xa90ac6b59e490724, 0xb1fdadff072e057f},
	"milc-like":       {0x3072725c0b0096e5, 0x3072725c0b0096e5},
	"omnetpp-like":    {0x67449ce360ee26ef, 0x667fbcb4dd13cbd4},
	"soplex-like":     {0x4934f0ccaa04b635, 0x31e85eda6efc5062},
	"sphinx-like":     {0x563d3f9c135316b4, 0x87274a8c64533d37},
	"swim-like":       {0xd8bcdd7d7ade1305, 0xd8bcdd7d7ade1305},
	"twolf-like":      {0xea39463015c79773, 0xa0f32405aebaaba5},
	"vpr-like":        {0x55422260b72ae9a3, 0x37810c8d852e3482},
}

func streamDigest(b Benchmark, seed uint64) uint64 {
	h := fnv.New64a()
	var rec [21]byte
	s := b.Stream(seed)
	for i := 0; i < pinAccesses; i++ {
		a, ok := s.Next()
		if !ok {
			panic("workload: stream ended")
		}
		binary.LittleEndian.PutUint64(rec[0:], a.PC)
		binary.LittleEndian.PutUint64(rec[8:], a.Addr)
		rec[16] = byte(a.Kind)
		binary.LittleEndian.PutUint32(rec[17:], a.Gap)
		h.Write(rec[:])
	}
	return h.Sum64()
}

func TestStreamsPinned(t *testing.T) {
	if len(streamPins) != len(All()) {
		t.Fatalf("%d pinned benchmarks, %d registered", len(streamPins), len(All()))
	}
	for _, b := range All() {
		want, ok := streamPins[b.Name]
		if !ok {
			t.Errorf("%s: no pinned digest", b.Name)
			continue
		}
		for i, seed := range []uint64{1, 7} {
			if got := streamDigest(b, seed); got != want[i] {
				t.Errorf("%s seed %d: digest %#016x, want %#016x", b.Name, seed, got, want[i])
			}
		}
	}
}
