package cache

import "math/bits"

// Set is one cache set: the physical lines, their tags and valid bits,
// and its index in the cache. The policy's logical organization of the
// set lives with the policy, which finds it by Index.
type Set struct {
	// Lines are the physical ways.
	Lines []Line

	// tags holds each way's tag (the line address, Addr >> offsetBits),
	// a slice of one cache-wide array: the hit/miss scan reads 8 bytes
	// per way instead of a whole Line. A tag counts only while its
	// validMask bit is set.
	tags []uint64
	// validMask has bit i set iff way i holds a line. The cache sets a
	// bit on each fill and never clears one, so FindInvalid — which
	// every policy's Victim asks, and which in steady state finds a
	// full set — is one bit operation.
	validMask uint64
	// index is the set's position in the cache, in [0, NumSets).
	index int
}

// Index returns the set's position in the cache: policies keep their
// per-set state in a slice sized by Policy.Init and indexed by it.
func (s *Set) Index() int { return s.index }

// Tag returns the tag of the line in way; it is meaningful only while
// Valid(way).
func (s *Set) Tag(way int) uint64 { return s.tags[way] }

// Valid reports whether way holds a line.
func (s *Set) Valid(way int) bool { return s.validMask&(1<<uint(way)) != 0 }

// FindInvalid returns the index of the first invalid way, or -1.
func (s *Set) FindInvalid() int {
	free := ^s.validMask & (uint64(1)<<uint(len(s.Lines)) - 1)
	if free == 0 {
		return -1
	}
	return bits.TrailingZeros64(free)
}

// Lookup returns the way holding tag, or -1. It is the cache's one
// lookup, and the simulator's hottest loop.
func (s *Set) Lookup(tag uint64) int {
	for i, t := range s.tags {
		if t == tag && s.validMask&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// WayList is an ordered list of at most MaxWays way indices, the one
// recency representation of every LLC policy: the LRU stacks of LRU,
// DIP/TADIP, Part (one per set and core), UCP, SLRU, OracleRetention and
// NUcache's MainWays, PIPP's priority lists, and the FIFO DeliWays of
// NUcache and OracleRetention. Position 0 is the "front" — by
// convention the MRU or highest-priority end; the back is the victim end.
// It is a value with no pointers, so a policy's per-set state holds its
// lists inline; the zero value is an empty list.
//
// A WayList never contains duplicates; all mutators preserve that
// invariant given distinct inputs.
type WayList struct {
	// ways holds position i's way in bits [4i, 4i+4): a way index below
	// MaxWays = 16 fits a nibble, so every splice is a shift and a mask,
	// never a copy. Nibbles at positions Len() and up are zero.
	ways uint64
	n    uint8
}

// nibbles repeats a nibble across a word.
const nibbles = 0x1111111111111111

const _ uint = 16 - MaxWays // fails to compile if a way outgrows a nibble

// below returns the mask of positions [0, i).
func below(i int) uint64 { return uint64(1)<<(4*uint(i)) - 1 }

// Len returns the number of entries.
func (l *WayList) Len() int { return int(l.n) }

// At returns the way at position i (0 = front); panics if i is out of
// range.
func (l *WayList) At(i int) int {
	if uint(i) >= uint(l.n) {
		panic("cache: WayList index out of range")
	}
	return int(l.ways >> (4 * uint(i)) & 0xF)
}

// Front returns the way at the front; panics if empty.
func (l *WayList) Front() int { return l.At(0) }

// Back returns the way at the back (victim end); panics if empty.
func (l *WayList) Back() int { return l.At(int(l.n) - 1) }

// PushFront inserts way at the front (MRU position).
func (l *WayList) PushFront(way int) {
	l.ways = l.ways<<4 | uint64(way)
	l.n++
}

// PushBack inserts way at the back (LRU position).
func (l *WayList) PushBack(way int) {
	l.ways |= uint64(way) << (4 * uint(l.n))
	l.n++
}

// InsertAt places way so that it ends up at position pos from the front
// (pos clamped to [0, Len()]).
func (l *WayList) InsertAt(pos, way int) {
	pos = max(0, min(pos, int(l.n)))
	m := below(pos)
	l.ways = l.ways&m | (l.ways&^m)<<4 | uint64(way)<<(4*uint(pos))
	l.n++
}

// IndexOf returns the position of way, or -1.
func (l *WayList) IndexOf(way int) int {
	// A nibble of x is zero where the list holds way. The lowest flag of
	// the zero-nibble test is exact; a borrow can only flag nibbles above
	// a true zero, and those past Len() are not entries.
	x := l.ways ^ uint64(way)*nibbles
	z := (x - nibbles) &^ x & (nibbles << 3)
	if i := bits.TrailingZeros64(z) / 4; i < int(l.n) {
		return i
	}
	return -1
}

// Remove deletes way from the list; returns false if absent.
func (l *WayList) Remove(way int) bool {
	i := l.IndexOf(way)
	if i < 0 {
		return false
	}
	l.RemoveAt(i)
	return true
}

// RemoveAt deletes the entry at position i.
func (l *WayList) RemoveAt(i int) {
	m := below(i)
	l.ways = l.ways&m | l.ways>>4&^m
	l.n--
}

// PopBack removes and returns the back entry; panics if empty.
func (l *WayList) PopBack() int {
	w := l.Back()
	l.n--
	l.ways &= below(int(l.n))
	return w
}

// PopFront removes and returns the front entry; panics if empty.
func (l *WayList) PopFront() int {
	w := l.Front()
	l.ways >>= 4
	l.n--
	return w
}

// MoveToFront relocates way to the front; it must be present.
func (l *WayList) MoveToFront(way int) {
	i := l.IndexOf(way)
	if i < 0 {
		panic("cache: MoveToFront of absent way")
	}
	m := below(i)
	l.ways = l.ways&^(m<<4|0xF) | (l.ways&m)<<4 | uint64(way)
}

// MoveUp swaps way one position toward the front (no-op at the front).
// Returns false if way is absent.
func (l *WayList) MoveUp(way int) bool {
	i := l.IndexOf(way)
	if i < 0 {
		return false
	}
	if i > 0 { // swap the nibbles at i-1 and i by XOR
		sh := 4 * uint(i-1)
		d := (l.ways>>sh ^ l.ways>>(sh+4)) & 0xF
		l.ways ^= (d | d<<4) << sh
	}
	return true
}

// Contains reports whether way is present.
func (l *WayList) Contains(way int) bool { return l.IndexOf(way) >= 0 }
