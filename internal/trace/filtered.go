package trace

// This file defines the L1-filtered event model: the policy-independent
// record of everything a core's private cache hierarchy emits toward the
// shared LLC. The CPU model's record pass (internal/cpu) runs the
// generator and private L1/L2 once and stores these events and crossings
// on a tape; replay runs drive only the shared LLC from the tape, once
// per policy.
//
// An event is one private-hierarchy miss: the demand access that reaches
// the LLC, the dirty private victim (if any) that is written back behind
// it, and the policy-independent cycle gap since the previous event.
// Gaps are what make deterministic replay possible: the global
// interleaving of LLC accesses in the direct simulator is fully determined
// by each core's policy-independent cycles plus the policy-dependent LLC
// service latencies, which replay re-derives per policy.

// FilteredEvent is one LLC-bound event.
type FilteredEvent struct {
	// Addr and PC are the demand access, untagged (no core bits); the
	// replay engine applies the per-core address/PC tagging.
	Addr uint64
	PC   uint64
	// Kind is the demand access kind.
	Kind Kind
	// CycleGap is the policy-independent cycles between the start of the
	// previous event's step and the start of this event's step (workload
	// gaps plus L1/L2 hit latencies; LLC and memory service time is
	// excluded and re-derived at replay time). For the first event it
	// counts from cycle zero.
	CycleGap uint64
	// HasWB reports that the deepest private level evicted a dirty line,
	// which the LLC sees as a posted store right after the demand access.
	HasWB bool
	// WBAddr is the victim's line address (untagged); WBPC the PC that
	// filled it. Valid only when HasWB.
	WBAddr uint64
	WBPC   uint64
}

// CrossKind labels a per-core measurement boundary.
type CrossKind uint8

const (
	// CrossWarmup is the end of the warm-up region (statistics re-base).
	CrossWarmup CrossKind = iota
	// CrossRecord is the instruction-budget snapshot.
	CrossRecord
	// CrossExhaust is stream exhaustion (the core stops issuing).
	CrossExhaust
)

// Crossing records a measurement boundary of the recording core: the
// policy-independent half of the statistics snapshot the direct simulator
// takes when a core crosses its warm-up or budget threshold, or when its
// stream runs dry. The policy-dependent half (cycles spent in LLC/memory
// service, per-core LLC hit/miss counters) is reconstructed at replay
// time from the replayed events.
type Crossing struct {
	Kind CrossKind
	// AfterEvents is the number of events already emitted when the
	// crossing step completes; replay applies the crossing once that many
	// events have been replayed.
	AfterEvents uint64
	// OnEvent reports that the crossing happened on an event step itself
	// (the access counted by AfterEvents); replay then applies it
	// immediately after that event instead of scheduling it separately.
	OnEvent bool
	// PStart and PEnd are the core's cumulative policy-independent cycles
	// at the start and end of the crossing step. The crossing is ordered
	// against other cores at PStart plus replayed service time; the
	// snapshot's cycle count is PEnd plus replayed service time.
	PStart, PEnd uint64
	// Instr, Mem, L1Hits and L1Misses are the core-cumulative counters at
	// the snapshot (all policy-independent).
	Instr, Mem, L1Hits, L1Misses uint64
}
