package mrc_test

// Differential suite for the capacity advisor: every machine shape the
// replay engine is validated on (internal/cpu/replay_test.go), crossed
// with every LLC policy the service can build. The contract, from
// weakest to strongest:
//
//   - Policy-independent window counters (instructions, private-level
//     hits/misses, LLC-bound accesses) must match the direct simulation
//     EXACTLY for every policy — the profile walks the same recorded
//     front end the replay engine replays.
//   - Static partitions ("Part"): per-core LLC hit and miss counts are
//     EXACT (a way partition is a private LRU cache, and the profile's
//     ATD prefix sums are that cache's hit counts by stack inclusion).
//     Under the flat memory model, cycles and IPC are exact too; under
//     banked DRAM the model charges the row hit/miss average per miss
//     and IPC is only bounded.
//   - Shared LRU and NUcache: the effective-ways composition is a
//     model, not a replay — miss rate and throughput are held to the
//     documented bounds below.
//
// Policies the model does not cover (UCP, DRRIP, ...) still participate:
// their runs pin the policy-independent half of the contract.

import (
	"math"
	"slices"
	"strings"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/memory"
	"nucache/internal/mrc"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

// Model-vs-simulation tolerances for the composed (non-exact) paths.
// Absolute miss-rate error tolerates the interleaving effects the
// occupancy fixed point cannot see; the throughput bound follows from
// it through the timing identity.
const (
	sharedMissRateTol   = 0.05 // |predicted - simulated| aggregate miss rate
	sharedThroughputTol = 0.10 // relative error on summed IPC
	dramIPCTol          = 0.30 // per-core IPC rel. error for exact-hits paths under DRAM
)

// shapeCase mirrors replayCase in internal/cpu/replay_test.go: the same
// eight machine shapes, so advisor and replay engine are held to their
// contracts on identical ground.
type shapeCase struct {
	name    string
	cfg     cpu.Config
	members []string
	streams func() []trace.Stream
}

func shapeStreams(names ...string) func() []trace.Stream {
	return func() []trace.Stream {
		out := make([]trace.Stream, len(names))
		for i, n := range names {
			out[i] = workload.MustByName(n).Stream(7 + uint64(i))
		}
		return out
	}
}

func shapeConfig(cores int) cpu.Config {
	return cpu.Config{
		Cores:       cores,
		L1:          cache.Config{SizeBytes: 2 << 10, Ways: 2, LineBytes: 64},
		LLC:         cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64},
		L1Latency:   1,
		LLCLatency:  10,
		MemLatency:  100,
		InstrBudget: 30_000,
	}
}

func shapeCases() []shapeCase {
	base := shapeCase{
		name:    "flat",
		cfg:     shapeConfig(2),
		members: []string{"art-like", "swim-like"},
		streams: shapeStreams("art-like", "swim-like"),
	}

	l2 := base
	l2.name = "privateL2"
	l2.cfg.L2 = cache.Config{SizeBytes: 8 << 10, Ways: 4, LineBytes: 64}
	l2.cfg.L2Latency = 6

	warm := base
	warm.name = "warmup"
	warm.cfg.WarmupInstr = 10_000

	pf := base
	pf.name = "prefetch"
	pf.cfg.PrefetchDegree = 2

	dram := base
	dram.name = "dram"
	d := memory.DefaultConfig()
	dram.cfg.DRAM = &d

	exhaust := shapeCase{
		name:    "exhaustion",
		cfg:     shapeConfig(2),
		members: []string{"ammp-like", "mcf-like"},
		streams: func() []trace.Stream {
			return []trace.Stream{
				trace.NewLimitStream(workload.MustByName("ammp-like").Stream(3), 4_000),
				trace.NewLimitStream(workload.MustByName("mcf-like").Stream(4), 9_000),
			}
		},
	}
	exhaust.cfg.InstrBudget = 0

	mixedEnd := shapeCase{
		name:    "budget-and-exhaustion",
		cfg:     shapeConfig(2),
		members: []string{"art-like", "milc-like"},
		streams: func() []trace.Stream {
			return []trace.Stream{
				trace.NewLimitStream(workload.MustByName("art-like").Stream(5), 5_000),
				workload.MustByName("milc-like").Stream(6),
			}
		},
	}

	sink := shapeCase{
		name:    "L2+warmup+prefetch+dram",
		cfg:     shapeConfig(3),
		members: []string{"art-like", "ammp-like", "libquantum-like"},
		streams: shapeStreams("art-like", "ammp-like", "libquantum-like"),
	}
	sink.cfg.L2 = cache.Config{SizeBytes: 8 << 10, Ways: 4, LineBytes: 64}
	sink.cfg.L2Latency = 6
	sink.cfg.WarmupInstr = 8_000
	sink.cfg.PrefetchDegree = 1
	d2 := memory.DefaultConfig()
	sink.cfg.DRAM = &d2

	return []shapeCase{base, l2, warm, pf, dram, exhaust, mixedEnd, sink}
}

func buildProfile(t testing.TB, tc shapeCase) *mrc.Profile {
	t.Helper()
	streams := tc.streams()
	tapes := make([]*cpu.Tape, len(streams))
	for i, s := range streams {
		tapes[i] = cpu.NewTape(tc.cfg, s)
	}
	p, err := mrc.BuildFromTapes(tc.cfg, tc.name, tc.members, 0, tapes)
	if err != nil {
		t.Fatalf("BuildFromTapes: %v", err)
	}
	return p
}

func runShape(t testing.TB, tc shapeCase, pol cache.Policy) []cpu.CoreResult {
	t.Helper()
	return newShapeSystem(tc, pol).Run()
}

func newShapeSystem(tc shapeCase, pol cache.Policy) *cpu.System {
	return cpu.NewSystem(tc.cfg, pol, tc.streams())
}

// checkWindowCounters pins the policy-independent half of the contract:
// the profile's measurement window is the simulator's, exactly.
func checkWindowCounters(t *testing.T, p *mrc.Profile, res []cpu.CoreResult) {
	t.Helper()
	for i, r := range res {
		c := &p.PerCore[i]
		if c.Instructions != r.Instructions {
			t.Errorf("core %d instructions: profile %d, sim %d", i, c.Instructions, r.Instructions)
		}
		if c.MemAccesses != r.MemAccesses {
			t.Errorf("core %d mem accesses: profile %d, sim %d", i, c.MemAccesses, r.MemAccesses)
		}
		if c.L1Hits != r.L1Hits || c.L1Misses != r.L1Misses {
			t.Errorf("core %d L1: profile %d/%d, sim %d/%d",
				i, c.L1Hits, c.L1Misses, r.L1Hits, r.L1Misses)
		}
		if c.Accesses != r.LLCAccesses {
			t.Errorf("core %d LLC accesses: profile %d, sim %d", i, c.Accesses, r.LLCAccesses)
		}
	}
}

// checkPartExact pins the exact half: static partitions are predicted
// hit-for-hit, and cycle-for-cycle under flat memory.
func checkPartExact(t *testing.T, tc shapeCase, pred *mrc.Prediction, res []cpu.CoreResult) {
	t.Helper()
	if !pred.HitsExact {
		t.Error("part prediction must claim HitsExact")
	}
	if pred.CyclesExact != (tc.cfg.DRAM == nil) {
		t.Errorf("CyclesExact = %v with DRAM %v", pred.CyclesExact, tc.cfg.DRAM != nil)
	}
	for i, r := range res {
		pc := &pred.PerCore[i]
		if pc.Hits != r.LLCHits || pc.Misses != r.LLCMisses {
			t.Errorf("core %d alloc %v: predicted hits/misses %d/%d, sim %d/%d",
				i, pred.Alloc, pc.Hits, pc.Misses, r.LLCHits, r.LLCMisses)
		}
		if tc.cfg.DRAM == nil {
			if pc.Cycles != r.Cycles {
				t.Errorf("core %d alloc %v: predicted cycles %d, sim %d",
					i, pred.Alloc, pc.Cycles, r.Cycles)
			}
		} else if r.IPC() > 0 {
			rel := math.Abs(pc.IPC-r.IPC()) / r.IPC()
			if rel > dramIPCTol {
				t.Errorf("core %d alloc %v: DRAM IPC rel err %.3f > %.2f (pred %.4f, sim %.4f)",
					i, pred.Alloc, rel, dramIPCTol, pc.IPC, r.IPC())
			}
		}
	}
}

// checkSharedBounds holds a composed (model) prediction to the
// documented miss-rate and throughput tolerances.
func checkSharedBounds(t *testing.T, label string, pred *mrc.Prediction, res []cpu.CoreResult) {
	t.Helper()
	var acc, miss uint64
	var thr float64
	for _, r := range res {
		acc += r.LLCAccesses
		miss += r.LLCMisses
		thr += r.IPC()
	}
	if acc == 0 {
		t.Fatalf("%s: simulation saw no LLC accesses", label)
	}
	simMR := float64(miss) / float64(acc)
	if d := math.Abs(pred.MissRate - simMR); d > sharedMissRateTol {
		t.Errorf("%s: miss-rate err %.4f > %.2f (pred %.4f, sim %.4f)",
			label, d, sharedMissRateTol, pred.MissRate, simMR)
	} else {
		t.Logf("%s: miss rate pred %.4f sim %.4f (err %.4f)", label, pred.MissRate, simMR, d)
	}
	if thr > 0 {
		rel := math.Abs(pred.Throughput-thr) / thr
		if rel > sharedThroughputTol {
			t.Errorf("%s: throughput rel err %.4f > %.2f (pred %.4f, sim %.4f)",
				label, rel, sharedThroughputTol, pred.Throughput, thr)
		} else {
			t.Logf("%s: throughput pred %.4f sim %.4f (rel %.4f)", label, pred.Throughput, thr, rel)
		}
	}
}

// skewedAllocs returns uneven partitions to test beyond the even split.
func skewedAllocs(cores, ways int) [][]int {
	switch cores {
	case 2:
		return [][]int{{1, ways - 1}, {ways - 2, 2}}
	case 3:
		return [][]int{{1, 1, ways - 2}, {ways - 4, 3, 1}}
	default:
		return nil
	}
}

// TestAdvisorMatchesSimulation is the advisor's exactness/bound
// contract, policy by policy and shape by shape.
func TestAdvisorMatchesSimulation(t *testing.T) {
	for _, tc := range shapeCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := buildProfile(t, tc)
			for _, polName := range sim.Policies() {
				t.Run(polName, func(t *testing.T) {
					pol, err := sim.BuildPolicy(polName, tc.cfg.Cores, tc.cfg.LLC.Ways, 0)
					if err != nil {
						t.Fatalf("build %s: %v", polName, err)
					}
					res := runShape(t, tc, pol)
					checkWindowCounters(t, p, res)
					switch strings.ToUpper(polName) {
					case "PART":
						pred, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyPart})
						if err != nil {
							t.Fatalf("predict part: %v", err)
						}
						checkPartExact(t, tc, pred, res)
					case "LRU":
						pred, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyLRU})
						if err != nil {
							t.Fatalf("predict lru: %v", err)
						}
						checkSharedBounds(t, "lru", pred, res)
					case "NUCACHE":
						// BuildPolicy(deliWays=0) disables retention, which
						// the model maps to DeliWays < 0.
						pred, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyNUcache, DeliWays: -1})
						if err != nil {
							t.Fatalf("predict nucache: %v", err)
						}
						checkSharedBounds(t, "nucache-d0", pred, res)
					}
				})
			}

			// Uneven partitions: the exact path must hold for every
			// allocation, not just the even split.
			for _, alloc := range skewedAllocs(tc.cfg.Cores, tc.cfg.LLC.Ways) {
				res := runShape(t, tc, policy.NewStaticPart(alloc))
				pred, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyPart, Alloc: alloc})
				if err != nil {
					t.Fatalf("predict part %v: %v", alloc, err)
				}
				checkPartExact(t, tc, pred, res)
			}

			// The paper's default split: NUcache with live DeliWays
			// retention against the cost-benefit model.
			pol, err := sim.BuildPolicy("NUcache", tc.cfg.Cores, tc.cfg.LLC.Ways, 6)
			if err != nil {
				t.Fatalf("build NUcache/6: %v", err)
			}
			res := runShape(t, tc, pol)
			pred, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyNUcache, DeliWays: 6})
			if err != nil {
				t.Fatalf("predict nucache/6: %v", err)
			}
			checkSharedBounds(t, "nucache-d6", pred, res)
		})
	}
}

// TestBestPartitionIsArgmax: the searched answer must dominate every
// candidate the model can score, on the 2-core 8-way flat shape and on
// a served 4-core 16-way profile: no composition of the ways may
// re-predict higher, the answer must re-predict to the same throughput,
// and a composition that ties it must come later in lexicographic
// order.
func TestBestPartitionIsArgmax(t *testing.T) {
	var served *mrc.Profile
	for _, np := range mustSearchProfiles(t) {
		if np.name == "mix4-01" {
			served = np.p
		}
	}
	for _, c := range []struct {
		name         string
		p            *mrc.Profile
		compositions int
	}{
		{"flat-2x8", buildProfile(t, shapeCases()[0]), 7}, // C(7,1)
		{"mix4-01-4x16", served, 455},                     // C(15,3)
	} {
		t.Run(c.name, func(t *testing.T) { checkArgmax(t, c.p, c.compositions) })
	}
}

func checkArgmax(t *testing.T, p *mrc.Profile, compositions int) {
	best, err := mrc.BestPartition(p)
	if err != nil {
		t.Fatalf("BestPartition: %v", err)
	}
	if best.Evaluated != compositions {
		t.Errorf("search evaluated %d allocations, want %d", best.Evaluated, compositions)
	}
	seen, found := 0, false
	alloc := make([]int, p.Cores)
	var walk func(i, remaining int)
	walk = func(i, remaining int) {
		if i == p.Cores-1 {
			alloc[i] = remaining
			seen++
			pred, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyPart, Alloc: alloc})
			if err != nil {
				t.Fatalf("predict %v: %v", alloc, err)
			}
			switch {
			case slices.Equal(alloc, best.Alloc):
				found = true
				if pred.Throughput != best.Throughput {
					t.Errorf("best alloc %v re-evaluates to %v, search said %v",
						alloc, pred.Throughput, best.Throughput)
				}
			case pred.Throughput > best.Throughput:
				t.Errorf("alloc %v beats the searched best %v (%v > %v)",
					alloc, best.Alloc, pred.Throughput, best.Throughput)
			case pred.Throughput == best.Throughput && !found:
				t.Errorf("alloc %v ties the searched best %v but sorts before it", alloc, best.Alloc)
			}
			return
		}
		for a := 1; a <= remaining-(p.Cores-1-i); a++ {
			alloc[i] = a
			walk(i+1, remaining-a)
		}
	}
	walk(0, p.Ways)
	if seen != compositions || !found {
		t.Errorf("walked %d compositions; searched best %v among them: %v", seen, best.Alloc, found)
	}
}
