package policy

import "nucache/internal/cache"

// SHiP is signature-based hit prediction (Wu et al., MICRO 2011) over an
// SRRIP substrate: a table of saturating counters, indexed by a hash of
// the filling PC, learns whether lines from that signature get re-used.
// Fills from zero-counter signatures insert with a distant re-reference
// prediction (immediately evictable); others insert like SRRIP. It is the
// closest PC-indexed contemporary of NUcache and a natural extra
// comparison point (the paper predates it by a few months).
type SHiP struct {
	table []uint8 // 2-bit saturating "lines from this signature re-use" counters
}

// Line.Meta layout: bits 0..7 RRPV, bit 8 outcome ("hit at least once"),
// bits 9+ signature index.
const (
	shipTableSize = 16 << 10
	shipCtrMax    = 3
	shipCtrInit   = 1
	shipRRPVMask  = 0xff
	shipOutcome   = 1 << 8
	shipSigShift  = 9
)

// NewSHiP returns a SHiP policy with a 16K-entry signature table.
func NewSHiP() *SHiP {
	s := &SHiP{table: make([]uint8, shipTableSize)}
	for i := range s.table {
		s.table[i] = shipCtrInit
	}
	return s
}

// Name implements cache.Policy.
func (*SHiP) Name() string { return "SHiP" }

// Init implements cache.Policy: SHiP keeps no per-set state.
func (*SHiP) Init(int) {}

// signature hashes a (core-tagged) PC into the predictor table.
func (*SHiP) signature(pc uint64) uint64 {
	h := pc * 0x9e3779b97f4a7c15
	return (h >> 13) % shipTableSize
}

// OnHit implements cache.Policy: a re-use trains the signature up and
// promotes the line (hit priority, like SRRIP).
func (s *SHiP) OnHit(set *cache.Set, way int, _ *cache.Request) {
	meta := set.Lines[way].Meta
	sig := meta >> shipSigShift
	if s.table[sig] < shipCtrMax {
		s.table[sig]++
	}
	set.Lines[way].Meta = sig<<shipSigShift | shipOutcome // RRPV = 0
}

// Victim implements cache.Policy: standard RRIP victim search; a victim
// that never hit trains its signature down.
func (s *SHiP) Victim(set *cache.Set, _ *cache.Request) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	for {
		for i := range set.Lines {
			meta := set.Lines[i].Meta
			if meta&shipRRPVMask >= rrpvMax {
				if meta&shipOutcome == 0 {
					sig := meta >> shipSigShift
					if s.table[sig] > 0 {
						s.table[sig]--
					}
				}
				return i
			}
		}
		for i := range set.Lines {
			if set.Lines[i].Meta&shipRRPVMask < rrpvMax {
				set.Lines[i].Meta++
			}
		}
	}
}

// OnInsert implements cache.Policy.
func (s *SHiP) OnInsert(set *cache.Set, way int, req *cache.Request) {
	sig := s.signature(req.PC)
	rrpv := uint64(rrpvMax - 1) // SRRIP default: long re-reference
	if s.table[sig] == 0 {
		rrpv = rrpvMax // predicted dead-on-fill: distant
	}
	set.Lines[way].Meta = sig<<shipSigShift | rrpv
}
