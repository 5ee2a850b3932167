package policy

import (
	"nucache/internal/cache"
	"nucache/internal/stats"
)

// RRIP-family policies (Jaleel et al., "High Performance Cache Replacement
// Using Re-Reference Interval Prediction", ISCA 2010). Each line carries a
// re-reference prediction value (RRPV) in Line.Meta; the victim is a line
// with the maximum RRPV (distant re-reference), aging all lines when none
// qualifies. SRRIP inserts at maxRRPV-1; DRRIP set-duels it against
// bimodal RRIP (BRRIP), which inserts at maxRRPV except with low
// probability.

const (
	rrpvBits = 2
	rrpvMax  = (1 << rrpvBits) - 1
	// brripEpsilon is the probability bimodal insertion (DRRIP's BRRIP
	// leg, TADIP's BIP) takes the non-bimodal position instead.
	brripEpsilon = 1.0 / 32
)

// rripVictim finds (aging as needed) a way with RRPV == max.
func rripVictim(set *cache.Set) int {
	if inv := set.FindInvalid(); inv >= 0 {
		return inv
	}
	for {
		for i := range set.Lines {
			if set.Lines[i].Meta >= rrpvMax {
				return i
			}
		}
		for i := range set.Lines {
			set.Lines[i].Meta++
		}
	}
}

// SRRIP is static RRIP with hit-priority promotion.
type SRRIP struct{}

// NewSRRIP returns an SRRIP policy.
func NewSRRIP() *SRRIP { return &SRRIP{} }

// Name implements cache.Policy.
func (*SRRIP) Name() string { return "SRRIP" }

// Init implements cache.Policy: SRRIP keeps its state in Line.Meta.
func (*SRRIP) Init(int) {}

// OnHit implements cache.Policy.
func (*SRRIP) OnHit(set *cache.Set, way int, _ *cache.Request) {
	set.Lines[way].Meta = 0
}

// Victim implements cache.Policy.
func (*SRRIP) Victim(set *cache.Set, _ *cache.Request) int { return rripVictim(set) }

// OnInsert implements cache.Policy.
func (*SRRIP) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	set.Lines[way].Meta = rrpvMax - 1
}

// DRRIP dynamically selects between SRRIP and BRRIP insertion via set
// dueling (single PSEL; thread-oblivious).
type DRRIP struct {
	rng  *stats.RNG
	psel psel
}

// NewDRRIP returns a DRRIP policy with a deterministic stream.
func NewDRRIP(seed uint64) *DRRIP {
	return &DRRIP{rng: stats.NewRNG(seed), psel: newPSEL()}
}

// Name implements cache.Policy.
func (*DRRIP) Name() string { return "DRRIP" }

// Init implements cache.Policy: DRRIP keeps its state in Line.Meta, and
// a set's duel role is a function of its index.
func (*DRRIP) Init(int) {}

// OnHit implements cache.Policy.
func (*DRRIP) OnHit(set *cache.Set, way int, _ *cache.Request) {
	set.Lines[way].Meta = 0
}

// Victim implements cache.Policy.
func (d *DRRIP) Victim(set *cache.Set, _ *cache.Request) int {
	switch duelRoleOf(set.Index(), 0) {
	case leaderA: // SRRIP leader missing: evidence for BRRIP
		d.psel.missInA()
	case leaderB:
		d.psel.missInB()
	}
	return rripVictim(set)
}

// OnInsert implements cache.Policy.
func (d *DRRIP) OnInsert(set *cache.Set, way int, _ *cache.Request) {
	useBRRIP := false
	switch duelRoleOf(set.Index(), 0) {
	case leaderA:
		useBRRIP = false
	case leaderB:
		useBRRIP = true
	default:
		useBRRIP = d.psel.useB()
	}
	if useBRRIP && !d.rng.Bool(brripEpsilon) {
		set.Lines[way].Meta = rrpvMax
	} else {
		set.Lines[way].Meta = rrpvMax - 1
	}
}
