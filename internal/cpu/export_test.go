package cpu

// TapeWord names a kind of word on a tape.
type TapeWord int

const (
	// EventWord is the first word of an event.
	EventWord TapeWord = iota
	// EventEscapeWord is the full PC or cycle gap after an escaped event
	// word.
	EventEscapeWord
	// WritebackWord is the first word of an event's writeback victim.
	WritebackWord
	// WritebackEscapeWord is the full PC after an escaped writeback word.
	WritebackEscapeWord
)

// TapePageWords is the number of words in one tape page.
const TapePageWords = pageWords

// wordKinds returns the kind of every word recorded so far. Called with
// t.mu held.
func (t *Tape) wordKinds() []TapeWord {
	r := t.rec
	v := tapeView{pages: r.pages}
	kinds := make([]TapeWord, 0, r.words)
	for w := uint64(0); w < r.words; w = uint64(len(kinds)) {
		x := v.word(w)
		kinds = append(kinds, EventWord)
		if uint8(x>>pcIdxShift) == escIdx {
			kinds = append(kinds, EventEscapeWord, EventEscapeWord)
		}
		if x&wbBit != 0 {
			kinds = append(kinds, WritebackWord)
			if uint8(v.word(uint64(len(kinds)-1))>>pcIdxShift) == escIdx {
				kinds = append(kinds, WritebackEscapeWord)
			}
		}
	}
	return kinds
}

// FlipTapeBit flips one bit of a tape's recorded words, as bit rot in a
// long-lived process's memory would: bit b of the i'th word of the
// given kind.
func FlipTapeBit(t *Tape, kind TapeWord, i uint64, b uint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for w, k := range t.wordKinds() {
		if k != kind {
			continue
		}
		if i == 0 {
			t.rec.pages[w>>pageShift][w&pageMask] ^= 1 << b
			return
		}
		i--
	}
	panic("cpu: FlipTapeBit past the tape's words of that kind")
}

// TapeWords returns how many words of the given kind a tape holds; its
// EventWord count is its event count.
func TapeWords(t *Tape, kind TapeWord) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, k := range t.wordKinds() {
		if k == kind {
			n++
		}
	}
	return n
}
