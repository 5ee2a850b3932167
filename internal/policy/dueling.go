package policy

// Set dueling infrastructure (Qureshi et al.): a few "leader" sets are
// dedicated to each competing policy; a saturating counter (PSEL) tracks
// which leader group misses less, and all "follower" sets use the winner.
//
// Leader assignment uses a fixed constituency scheme: sets are grouped
// into constituencies of constituencySize sets; within constituency c,
// offset 2t selects policy-A leader for owner t and offset 2t+1 selects
// policy-B leader for owner t. Single-owner policies (DRRIP) use owner 0.

const (
	constituencySize = 32
	pselBits         = 10
	pselMax          = (1 << pselBits) - 1
	pselInit         = pselMax / 2
)

// duelRole classifies a set for one owner's duel.
type duelRole uint8

const (
	follower duelRole = iota
	leaderA           // dedicated to the first policy (e.g. SRRIP, LRU)
	leaderB           // dedicated to the second policy (e.g. BRRIP, BIP)
)

// duelRoleOf returns the role of setIndex in owner's duel.
func duelRoleOf(setIndex, owner int) duelRole {
	off := setIndex % constituencySize
	if off == 2*owner {
		return leaderA
	}
	if off == 2*owner+1 {
		return leaderB
	}
	return follower
}

// psel is a saturating counter; the MSB picks the winner.
type psel struct {
	v int
}

func newPSEL() psel { return psel{v: pselInit} }

// missInA records a miss in a policy-A leader set (evidence for B).
func (p *psel) missInA() {
	if p.v < pselMax {
		p.v++
	}
}

// missInB records a miss in a policy-B leader set (evidence for A).
func (p *psel) missInB() {
	if p.v > 0 {
		p.v--
	}
}

// useB reports whether follower sets should use policy B.
func (p *psel) useB() bool { return p.v > pselMax/2 }
