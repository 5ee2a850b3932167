package cache

import "nucache/internal/trace"

// Line is one physical cache line's bookkeeping (no data is modelled).
// The tag and the valid bit are not here: they live once, in the set's
// tag array and valid mask (Set.Tag, Set.Valid), which the hit/miss
// scan reads. That leaves a 24-byte Line, touched only at the resolved
// way — the dirty bit on a store hit, the victim and fill on a miss —
// and by policies choosing a victim.
type Line struct {
	// PC is the program counter of the instruction whose miss filled the
	// line; PC-indexed mechanisms (NUcache) key off this.
	PC uint64
	// Meta is a scratch word owned by the replacement policy
	// (RRPV, Belady next-use, ...).
	Meta uint64
	// Core is the index of the core that filled the line. int32 keeps the
	// struct at 24 bytes; core counts are tiny.
	Core int32
	// Dirty marks the line as modified (fills by stores, hit stores).
	Dirty bool
}

// Request is one access presented to a cache.
type Request struct {
	// Addr is the byte address.
	Addr uint64
	// PC is the accessing instruction (core-tagged by the CPU model).
	PC uint64
	// Core is the index of the issuing core.
	Core int
	// Kind is load or store.
	Kind trace.Kind
	// Seq is the per-cache access sequence number, assigned by the cache
	// before policy hooks run. Offline policies (Belady OPT) use it to
	// index precomputed future knowledge.
	Seq uint64
}
