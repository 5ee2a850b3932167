package policy

// NewUCPWithEpoch is NewUCP with a repartitioning period of epoch LLC
// accesses instead of the default, so tests on small caches see epochs.
func NewUCPWithEpoch(cores, ways int, epoch uint64) *UCP {
	u := NewUCP(cores, ways)
	u.epochAccesses = epoch
	return u
}

// NewPIPPWithEpoch is NewPIPP with a repartitioning period of epoch LLC
// accesses instead of the default.
func NewPIPPWithEpoch(cores, ways int, seed, epoch uint64) *PIPP {
	p := NewPIPP(cores, ways, seed)
	p.epochAccesses = epoch
	return p
}
