// Package workload provides deterministic synthetic benchmark models that
// stand in for the SPEC CPU workloads of the NUcache evaluation (the
// binaries and traces are not redistributable; see DESIGN.md for the
// substitution argument).
//
// Each benchmark is a small program model: a set of static access sites
// (PCs) arranged into loops over typed memory regions — sequential scans,
// pointer chases, Zipf-skewed heaps, blocked traversals. The models are
// built from the same program idioms that give real workloads their two
// load-bearing statistical properties:
//
//  1. miss skew — a handful of delinquent PCs produce most LLC misses, and
//  2. per-PC next-use clustering — lines brought in by one PC are re-used
//     after similar distances.
//
// Streams are unbounded (generators loop forever); the CPU model's
// instruction budget bounds simulation length.
package workload

import (
	"fmt"
	"sort"

	"nucache/internal/stats"
	"nucache/internal/trace"
)

// Class is a coarse behavioural label used in reports.
type Class string

const (
	// ClassFriendly fits comfortably in the LLC (or even L1).
	ClassFriendly Class = "cache-friendly"
	// ClassSensitive gains from extra effective LLC lifetime: reuse
	// sits just beyond what baseline LRU retains.
	ClassSensitive Class = "llc-sensitive"
	// ClassStreaming has essentially no LLC reuse.
	ClassStreaming Class = "streaming"
	// ClassThrashing cycles a working set larger than the LLC.
	ClassThrashing Class = "thrashing"
	// ClassMixed combines phases of the above.
	ClassMixed Class = "mixed"
)

// Benchmark is a named synthetic program model.
type Benchmark struct {
	// Name is the model's identifier (SPEC-inspired, "-like" suffixed).
	Name string
	// Class is the behavioural label.
	Class Class
	// Description summarizes the modelled behaviour.
	Description string

	// A model sets exactly one generator. Seeded models draw from an
	// RNG that Stream derives from the name and the seed (passed by
	// value, so a model that only splits it keeps it off the heap);
	// seedless models are purely structural and have one stream for
	// every seed.
	seeded func(rng stats.RNG) trace.Stream
	build  func() trace.Stream
}

// Stream returns a fresh unbounded access stream. Equal seeds give
// identical streams. Seeded models fold their name into the seed, so
// mixes of the same benchmark at different positions still diverge via
// the caller's per-core seed; seedless models ignore the seed.
func (b Benchmark) Stream(seed uint64) trace.Stream {
	switch {
	case b.seeded != nil:
		return b.seeded(*stats.NewRNG(hashName(b.Name, seed)))
	case b.build != nil:
		return b.build()
	}
	panic(fmt.Sprintf("workload: benchmark %q has no generator", b.Name))
}

// StreamID names the stream Stream(seed) returns: equal ids give
// identical streams. A seedless model's id is its name alone, so every
// seed and mix position shares one recorded tape of it.
func (b Benchmark) StreamID(seed uint64) string {
	if b.seeded == nil {
		return b.Name
	}
	return fmt.Sprintf("%s@%d", b.Name, seed)
}

var registry = map[string]Benchmark{}

func register(b Benchmark) Benchmark {
	if _, dup := registry[b.Name]; dup {
		panic("workload: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
	return b
}

// ByName looks up a registered benchmark.
func ByName(name string) (Benchmark, bool) {
	b, ok := registry[name]
	return b, ok
}

// MustByName looks up a benchmark, panicking if absent (experiment setup).
func MustByName(name string) Benchmark {
	b, ok := registry[name]
	if !ok {
		panic("workload: unknown benchmark " + name)
	}
	return b
}

// All returns every registered benchmark, sorted by name.
func All() []Benchmark {
	out := make([]Benchmark, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// hashName folds a benchmark name into a seed.
func hashName(name string, seed uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ seed
}
