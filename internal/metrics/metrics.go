// Package metrics implements the multiprogrammed-workload performance
// metrics used by the evaluation — weighted speedup, average normalized
// turnaround time (ANTT), harmonic mean of speedups and fairness —
// plus a small text-table renderer for harness output.
package metrics

// WeightedSpeedup is Σ_i IPC_shared_i / IPC_alone_i — the throughput
// metric the paper's headline numbers are quoted in. A system that runs
// every program at its alone speed scores n.
func WeightedSpeedup(shared, alone []float64) float64 {
	checkLens(shared, alone)
	sum := 0.0
	for i := range shared {
		if alone[i] > 0 {
			sum += shared[i] / alone[i]
		}
	}
	return sum
}

// ANTT is the average normalized turnaround time (1/n) Σ IPC_alone_i /
// IPC_shared_i — a user-centric slowdown metric; lower is better, 1 is
// interference-free.
func ANTT(shared, alone []float64) float64 {
	checkLens(shared, alone)
	if len(shared) == 0 {
		return 0
	}
	sum := 0.0
	for i := range shared {
		if shared[i] > 0 {
			sum += alone[i] / shared[i]
		}
	}
	return sum / float64(len(shared))
}

// HarmonicSpeedup is n / Σ_i IPC_alone_i / IPC_shared_i — balances
// throughput and fairness; higher is better, 1 is interference-free.
func HarmonicSpeedup(shared, alone []float64) float64 {
	checkLens(shared, alone)
	sum := 0.0
	n := 0
	for i := range shared {
		if shared[i] > 0 && alone[i] > 0 {
			sum += alone[i] / shared[i]
			n++
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(n) / sum
}

// Fairness is min_i(speedup_i) / max_i(speedup_i) where speedup_i =
// shared/alone; 1 is perfectly fair.
func Fairness(shared, alone []float64) float64 {
	checkLens(shared, alone)
	minS, maxS := 0.0, 0.0
	first := true
	for i := range shared {
		if alone[i] <= 0 {
			continue
		}
		s := shared[i] / alone[i]
		if first {
			minS, maxS = s, s
			first = false
			continue
		}
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if maxS == 0 {
		return 0
	}
	return minS / maxS
}

func checkLens(shared, alone []float64) {
	if len(shared) != len(alone) {
		panic("metrics: shared/alone length mismatch")
	}
}
