package cache

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestWayListBasics(t *testing.T) {
	l := &WayList{}
	if l.Len() != 0 {
		t.Fatal("new list not empty")
	}
	l.PushFront(1)
	l.PushFront(2)
	l.PushBack(3)
	// Order: 2 1 3
	if l.Front() != 2 || l.Back() != 3 || l.At(1) != 1 {
		t.Fatalf("order wrong: %d %d %d", l.At(0), l.At(1), l.At(2))
	}
	if !l.Contains(1) || l.Contains(9) {
		t.Fatal("contains wrong")
	}
	if l.IndexOf(3) != 2 {
		t.Fatalf("IndexOf(3) = %d", l.IndexOf(3))
	}
}

func TestWayListMoveToFront(t *testing.T) {
	l := &WayList{}
	l.PushBack(0)
	l.PushBack(1)
	l.PushBack(2)
	l.MoveToFront(2)
	if l.Front() != 2 || l.At(1) != 0 || l.Back() != 1 {
		t.Fatal("MoveToFront wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for absent way")
		}
	}()
	l.MoveToFront(7)
}

func TestWayListInsertAt(t *testing.T) {
	l := &WayList{}
	l.PushBack(0)
	l.PushBack(1)
	l.InsertAt(1, 5)
	if l.At(0) != 0 || l.At(1) != 5 || l.At(2) != 1 {
		t.Fatal("InsertAt middle wrong")
	}
	l.InsertAt(-3, 6)
	if l.Front() != 6 {
		t.Fatal("InsertAt clamps low")
	}
	l.InsertAt(99, 7)
	if l.Back() != 7 {
		t.Fatal("InsertAt clamps high")
	}
}

func TestWayListRemovePop(t *testing.T) {
	l := &WayList{}
	l.PushBack(0)
	l.PushBack(1)
	l.PushBack(2)
	if !l.Remove(1) || l.Remove(1) {
		t.Fatal("Remove wrong")
	}
	if got := l.PopBack(); got != 2 {
		t.Fatalf("PopBack = %d", got)
	}
	if got := l.PopFront(); got != 0 {
		t.Fatalf("PopFront = %d", got)
	}
	if l.Len() != 0 {
		t.Fatal("not empty after pops")
	}
}

func TestWayListMoveUp(t *testing.T) {
	l := &WayList{}
	l.PushBack(0)
	l.PushBack(1)
	if !l.MoveUp(1) {
		t.Fatal("MoveUp returned false")
	}
	if l.Front() != 1 {
		t.Fatal("MoveUp did not swap")
	}
	if !l.MoveUp(1) { // already front: no-op but true
		t.Fatal("MoveUp at front returned false")
	}
	if l.Front() != 1 {
		t.Fatal("MoveUp at front moved")
	}
	if l.MoveUp(9) {
		t.Fatal("MoveUp of absent way returned true")
	}
}

func TestWayListNoDuplicatesProperty(t *testing.T) {
	// Property: random op sequences keep entries unique.
	if err := quick.Check(func(ops []uint8) bool {
		l := &WayList{} // the zero value is an empty list
		present := map[int]bool{}
		for _, op := range ops {
			way := int(op % MaxWays) // up to a full list
			switch (op / MaxWays) % 4 {
			case 0:
				if !present[way] {
					l.PushFront(way)
					present[way] = true
				}
			case 1:
				if !present[way] {
					l.PushBack(way)
					present[way] = true
				}
			case 2:
				if present[way] {
					l.Remove(way)
					delete(present, way)
				}
			case 3:
				if present[way] {
					l.MoveToFront(way)
				}
			}
		}
		if l.Len() != len(present) {
			return false
		}
		seen := map[int]bool{}
		for i := 0; i < l.Len(); i++ {
			w := l.At(i)
			if seen[w] || !present[w] {
				return false
			}
			seen[w] = true
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWayListMatchesSliceModel: random sequences of every mutator keep
// a WayList equal, position for position, to a plain slice doing the
// same splices, and IndexOf finds each of the 16 way indices exactly
// where the slice holds it (or nowhere). The nibble packing is all
// shifts and masks, so this pins its arithmetic at every length,
// including way 0 beside the zero nibbles past the end.
func TestWayListMatchesSliceModel(t *testing.T) {
	if err := quick.Check(func(ops [200]uint16) bool {
		var l WayList
		var ref []int
		absent := func(way int) bool { return !slices.Contains(ref, way) }
		// Start from 0 to 16 entries (5 is coprime with 16, so the ways
		// are distinct): random operations alone seldom fill a list.
		for i := range int(ops[0] % (MaxWays + 1)) {
			w := (5*i + int(ops[1])) % MaxWays
			l.PushBack(w)
			ref = append(ref, w)
		}
		for _, op := range ops[2:] {
			way, pos := int(op%MaxWays), int(op/MaxWays%(MaxWays+2))-1
			switch op / (MaxWays * (MaxWays + 2)) % 8 {
			case 0:
				if absent(way) {
					l.PushFront(way)
					ref = slices.Insert(ref, 0, way)
				}
			case 1:
				if absent(way) {
					l.PushBack(way)
					ref = append(ref, way)
				}
			case 2:
				if absent(way) {
					l.InsertAt(pos, way)
					ref = slices.Insert(ref, max(0, min(pos, len(ref))), way)
				}
			case 3:
				if l.Remove(way) != !absent(way) {
					return false
				}
				ref = slices.DeleteFunc(ref, func(w int) bool { return w == way })
			case 4:
				if !absent(way) {
					l.MoveToFront(way)
					i := slices.Index(ref, way)
					ref = slices.Insert(slices.Delete(ref, i, i+1), 0, way)
				}
			case 5:
				if i := slices.Index(ref, way); l.MoveUp(way) != (i >= 0) {
					return false
				} else if i > 0 {
					ref[i-1], ref[i] = ref[i], ref[i-1]
				}
			case 6:
				if len(ref) > 0 {
					if l.PopBack() != ref[len(ref)-1] {
						return false
					}
					ref = ref[:len(ref)-1]
				}
			case 7:
				if len(ref) > 0 {
					if l.PopFront() != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			}
			if l.Len() != len(ref) {
				return false
			}
			for i, w := range ref {
				if l.At(i) != w {
					return false
				}
			}
			for w := 0; w < MaxWays; w++ {
				if l.IndexOf(w) != slices.Index(ref, w) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetHelpers(t *testing.T) {
	s := &Set{Lines: make([]Line, 4), tags: make([]uint64, 4)}
	if got := s.FindInvalid(); got != 0 {
		t.Fatalf("FindInvalid = %d", got)
	}
	s.tags[0], s.tags[1] = 10, 11
	s.validMask = 0b11 // Cache.Access sets these on real sets
	if got := s.FindInvalid(); got != 2 {
		t.Fatalf("FindInvalid = %d", got)
	}
	if !s.Valid(1) || s.Valid(2) || s.Tag(1) != 11 {
		t.Fatalf("Valid(1)=%v Valid(2)=%v Tag(1)=%d", s.Valid(1), s.Valid(2), s.Tag(1))
	}
	if got := s.Lookup(11); got != 1 {
		t.Fatalf("Lookup = %d", got)
	}
	if got := s.Lookup(99); got != -1 {
		t.Fatalf("Lookup missing = %d", got)
	}
	s.tags[2] = 99 // invalid: must not match
	if got := s.Lookup(99); got != -1 {
		t.Fatalf("Lookup invalid tag matched: %d", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "L", SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 1024 {
		t.Fatalf("Sets = %d", good.Sets())
	}
	bad := []Config{
		{Name: "a", SizeBytes: 0, Ways: 4, LineBytes: 64},
		{Name: "b", SizeBytes: 1 << 20, Ways: 16, LineBytes: 60},
		{Name: "c", SizeBytes: 1<<20 + 64, Ways: 16, LineBytes: 64},
		{Name: "d", SizeBytes: 3 * 16 * 64, Ways: 16, LineBytes: 64}, // 3 sets
		{Name: "e", SizeBytes: 4 * (MaxWays + 1) * 64, Ways: MaxWays + 1, LineBytes: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %q validated", c.Name)
		}
	}
}

// TestLineSize pins the packed Line layout: the tag and the valid bit
// live in the set's tag array and valid mask, not in each Line.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Fatalf("sizeof(Line) = %d, want 24", got)
	}
}

// TestAccessResultSize pins AccessResult at four fields and 32 bytes, the
// most the compiler returns in registers.
func TestAccessResultSize(t *testing.T) {
	typ := reflect.TypeOf(AccessResult{})
	if typ.NumField() > 4 || typ.Size() > 32 {
		t.Fatalf("AccessResult has %d fields in %d bytes, want at most 4 in 32", typ.NumField(), typ.Size())
	}
}
