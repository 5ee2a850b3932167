package workload

import (
	"fmt"
	"slices"
	"strings"

	"nucache/internal/trace"
)

// Mix is a named multiprogrammed workload: one benchmark per core. Mix
// composition follows the evaluation's recipe — combining LLC-sensitive
// programs (which can profit from retention/partitioning) with streaming,
// thrashing and cache-friendly neighbors in varying proportions.
type Mix struct {
	// Name identifies the mix in reports ("mix2-03").
	Name string
	// Members are the benchmark names, one per core, in core order.
	Members []string
}

// Streams builds one fresh access stream per core (panicking on an
// unknown member, an experiment-definition error). Each position gets a
// distinct derived seed, so duplicates of a seeded benchmark in one mix
// diverge.
func (m Mix) Streams(seed uint64) []trace.Stream {
	out := make([]trace.Stream, len(m.Members))
	for i, name := range m.Members {
		out[i] = MustByName(name).Stream(MemberSeed(seed, i))
	}
	return out
}

// MemberSeed is the generator seed of position i in a mix run at seed.
// Position 0 runs at seed itself, so a benchmark running alone draws
// the same stream as every mix that leads with it.
func MemberSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9e3779b97f4a7c15
}

// Cores returns the mix width.
func (m Mix) Cores() int { return len(m.Members) }

// String renders "name(member+member+...)".
func (m Mix) String() string {
	return fmt.Sprintf("%s(%s)", m.Name, strings.Join(m.Members, "+"))
}

// mixSet builds Mix values with sequential names.
func mixSet(prefix string, members [][]string) []Mix {
	out := make([]Mix, len(members))
	for i, ms := range members {
		out[i] = Mix{Name: fmt.Sprintf("%s-%02d", prefix, i+1), Members: ms}
	}
	return out
}

// standardMixes is the catalog of standard mixes, one list per width in
// ascending width order: ten dual-core, ten quad-core and eight
// eight-core mixes. It is built once; callers get copies.
var standardMixes = []struct {
	cores int
	mixes []Mix
}{
	{2, mixSet("mix2", [][]string{
		{"art-like", "swim-like"},
		{"ammp-like", "libquantum-like"},
		{"sphinx-like", "mcf-like"},
		{"omnetpp-like", "milc-like"},
		{"art-like", "ammp-like"},
		{"sphinx-like", "twolf-like"},
		{"facerec-like", "mcf-like"},
		{"bzip2-like", "libquantum-like"},
		{"gcc-like", "mcf-like"},
		{"equake-like", "milc-like"},
	})},
	{4, mixSet("mix4", [][]string{
		{"art-like", "ammp-like", "swim-like", "milc-like"},
		{"facerec-like", "equake-like", "libquantum-like", "mcf-like"},
		{"sphinx-like", "facerec-like", "ammp-like", "swim-like"},
		{"art-like", "equake-like", "sphinx-like", "milc-like"},
		{"omnetpp-like", "bzip2-like", "mcf-like", "hmmer-like"},
		{"facerec-like", "ammp-like", "equake-like", "art-like"},
		{"sphinx-like", "omnetpp-like", "gcc-like", "milc-like"},
		{"soplex-like", "twolf-like", "swim-like", "libquantum-like"},
		{"art-like", "facerec-like", "mcf-like", "vpr-like"},
		{"equake-like", "sphinx-like", "bzip2-like", "swim-like"},
	})},
	{8, mixSet("mix8", [][]string{
		{"art-like", "ammp-like", "sphinx-like", "facerec-like",
			"equake-like", "omnetpp-like", "swim-like", "milc-like"},
		{"art-like", "facerec-like", "equake-like", "ammp-like",
			"sphinx-like", "swim-like", "libquantum-like", "mcf-like"},
		{"facerec-like", "equake-like", "ammp-like", "sphinx-like",
			"twolf-like", "vpr-like", "swim-like", "milc-like"},
		{"art-like", "art-like", "ammp-like", "sphinx-like",
			"swim-like", "swim-like", "libquantum-like", "milc-like"},
		{"omnetpp-like", "omnetpp-like", "soplex-like", "bzip2-like",
			"mcf-like", "mcf-like", "twolf-like", "hmmer-like"},
		{"art-like", "ammp-like", "sphinx-like", "soplex-like",
			"gcc-like", "omnetpp-like", "bzip2-like", "twolf-like"},
		{"facerec-like", "equake-like", "facerec-like", "equake-like",
			"mcf-like", "swim-like", "libquantum-like", "milc-like"},
		{"art-like", "sphinx-like", "omnetpp-like", "ammp-like",
			"milc-like", "mcf-like", "swim-like", "libquantum-like"},
	})},
}

// mixIndex finds a standard mix by name.
var mixIndex = map[string]Mix{}

func init() {
	for _, w := range standardMixes {
		for _, m := range w.mixes {
			mixIndex[m.Name] = m
		}
	}
}

// clone copies m so that a caller's edits cannot reach the catalog.
func (m Mix) clone() Mix {
	m.Members = slices.Clone(m.Members)
	return m
}

// MixWidths lists the core counts that have a standard mix list,
// ascending.
func MixWidths() []int {
	out := make([]int, len(standardMixes))
	for i, w := range standardMixes {
		out[i] = w.cores
	}
	return out
}

// MixesFor returns a copy of the standard mix list for a core count (one
// of MixWidths); any other count panics.
func MixesFor(cores int) []Mix {
	for _, w := range standardMixes {
		if w.cores == cores {
			out := make([]Mix, len(w.mixes))
			for i, m := range w.mixes {
				out[i] = m.clone()
			}
			return out
		}
	}
	panic(fmt.Sprintf("workload: no standard mixes for %d cores", cores))
}

// MixByName returns a copy of the standard mix with the given name.
func MixByName(name string) (Mix, bool) {
	m, ok := mixIndex[name]
	if !ok {
		return Mix{}, false
	}
	return m.clone(), true
}
