// Package trace defines the memory-access trace representation used
// throughout the simulator: a stream of (PC, address, kind, gap) records,
// where gap is the number of non-memory instructions retired since the
// previous memory access. Streams may be generated synthetically
// (internal/workload), captured to buffers, or serialized to a compact
// binary format for replay.
package trace

import "fmt"

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Load is a memory read.
	Load Kind = iota
	// Store is a memory write.
	Store
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is a single memory access record.
//
// PC identifies the static instruction that issued the access. In
// multiprogrammed runs the CPU model tags PCs with the core index so that
// PC-indexed mechanisms (like NUcache's chosen-PC set) never alias across
// programs, mirroring how the hardware proposal tracks per-core PCs.
type Access struct {
	PC   uint64
	Addr uint64
	Kind Kind
	// Gap is the number of non-memory instructions retired immediately
	// before this access; the timing model charges one cycle each.
	Gap uint32
}

// Stream is a pull-based source of accesses. Next returns the next access
// and true, or a zero Access and false when the stream is exhausted.
// Streams are single-use; sources that can be replayed return fresh
// streams from their factory (see workload.Benchmark.Stream).
type Stream interface {
	Next() (Access, bool)
}

// SliceStream replays a slice of accesses.
type SliceStream struct {
	accesses []Access
	pos      int
}

// NewSliceStream returns a Stream over the given accesses.
// The slice is not copied; callers must not mutate it during replay.
func NewSliceStream(accesses []Access) *SliceStream {
	return &SliceStream{accesses: accesses}
}

// Next implements Stream.
func (s *SliceStream) Next() (Access, bool) {
	if s.pos >= len(s.accesses) {
		return Access{}, false
	}
	a := s.accesses[s.pos]
	s.pos++
	return a, true
}

// Len returns the total number of accesses in the underlying slice.
func (s *SliceStream) Len() int { return len(s.accesses) }

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Collect drains up to max accesses from a stream into a slice.
// max <= 0 drains the entire stream.
func Collect(s Stream, max int) []Access {
	var out []Access
	for max <= 0 || len(out) < max {
		a, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// LimitStream truncates an underlying stream after n accesses.
type LimitStream struct {
	inner Stream
	left  int
}

// NewLimitStream returns a stream yielding at most n accesses from inner.
func NewLimitStream(inner Stream, n int) *LimitStream {
	return &LimitStream{inner: inner, left: n}
}

// Next implements Stream.
func (s *LimitStream) Next() (Access, bool) {
	if s.left <= 0 {
		return Access{}, false
	}
	a, ok := s.inner.Next()
	if !ok {
		s.left = 0
		return Access{}, false
	}
	s.left--
	return a, true
}

// FuncStream adapts a generator function to the Stream interface.
type FuncStream func() (Access, bool)

// Next implements Stream.
func (f FuncStream) Next() (Access, bool) { return f() }
