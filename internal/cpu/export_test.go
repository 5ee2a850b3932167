package cpu

// FlipTapeBit flips one bit of a tape's recorded records, as bit rot in
// a long-lived process's memory would: bit b of event record i's first
// word, or of writeback record i's address when wb is set.
func FlipTapeBit(t *Tape, wb bool, i uint64, b uint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if wb {
		t.rec.wbPages[i>>wbPageShift][i&wbPageMask].addr ^= 1 << b
	} else {
		t.rec.evPages[i>>evPageShift][i&evPageMask].w0 ^= 1 << b
	}
}

// TapeRecords returns the event and writeback records on a tape.
func TapeRecords(t *Tape) (events, wbs uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec.events, t.rec.wbs
}
