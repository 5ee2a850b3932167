package trace

import (
	"testing"
)

func sample(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = Access{
			PC:   uint64(0x400000 + (i%7)*4),
			Addr: uint64(i * 64),
			Kind: Kind(i % 2),
			Gap:  uint32(i % 5),
		}
	}
	return out
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("got %q", Kind(9).String())
	}
}

func TestSliceStream(t *testing.T) {
	in := sample(5)
	s := NewSliceStream(in)
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := Collect(s, -1)
	if len(got) != 5 {
		t.Fatalf("collected %d", len(got))
	}
	for i := range got {
		if got[i] != in[i] {
			t.Fatalf("access %d mismatch", i)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream yielded")
	}
	s.Reset()
	if a, ok := s.Next(); !ok || a != in[0] {
		t.Fatal("reset failed")
	}
}

func TestCollectMax(t *testing.T) {
	s := NewSliceStream(sample(10))
	got := Collect(s, 3)
	if len(got) != 3 {
		t.Fatalf("collected %d", len(got))
	}
}

func TestLimitStream(t *testing.T) {
	s := NewLimitStream(NewSliceStream(sample(10)), 4)
	if got := len(Collect(s, -1)); got != 4 {
		t.Fatalf("limit yielded %d", got)
	}
	empty := NewLimitStream(NewSliceStream(sample(2)), 10)
	if got := len(Collect(empty, -1)); got != 2 {
		t.Fatalf("short inner yielded %d", got)
	}
	if _, ok := empty.Next(); ok {
		t.Fatal("yielded after inner exhausted")
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	s := FuncStream(func() (Access, bool) {
		if n >= 3 {
			return Access{}, false
		}
		n++
		return Access{PC: uint64(n)}, true
	})
	if got := len(Collect(s, -1)); got != 3 {
		t.Fatalf("func stream yielded %d", got)
	}
}

func TestLimitStreamZero(t *testing.T) {
	s := NewLimitStream(NewSliceStream(sample(3)), 0)
	if _, ok := s.Next(); ok {
		t.Fatal("zero-limit stream yielded")
	}
}
