package mrc_test

// The subsystem's reason to exist, measured: answering a what-if from a
// profile must be orders of magnitude faster than simulating it. The
// benchmarks record the two costs; TestAdvisorSpeedup asserts a
// conservative floor so the property is CI-enforced, not just observed
// (the measured ratio on the reference shape is ~10^4-10^5; the floor
// of 100x leaves room for noisy shared runners).

import (
	"testing"
	"time"

	"nucache/internal/mrc"
	"nucache/internal/policy"
)

// BenchmarkPredict times one model evaluation (the advisor's unit of
// work once a profile exists).
func BenchmarkPredict(b *testing.B) {
	tc := shapeCases()[0]
	p := buildProfile(b, tc)
	alloc := []int{6, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyPart, Alloc: alloc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateWhatIf times answering the same question the slow
// way: a full direct simulation of the partitioned machine.
func BenchmarkSimulateWhatIf(b *testing.B) {
	tc := shapeCases()[0]
	alloc := []int{6, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := newShapeSystem(tc, policy.NewStaticPart(alloc))
		sys.Run()
	}
}

// BenchmarkBestPartition times the full argmax search on the served
// shape, a 16-way LLC: every composition of the ways over 4 cores (455)
// and over 8 cores (6,435, the widest search Validate admits).
func BenchmarkBestPartition(b *testing.B) { benchSearch(b, mrc.BestPartition) }

// BenchmarkBestDeliWays times NUcache's split search (16 splits) on the
// same profiles.
func BenchmarkBestDeliWays(b *testing.B) { benchSearch(b, mrc.BestDeliWays) }

func benchSearch(b *testing.B, search func(*mrc.Profile) (*mrc.Prediction, error)) {
	for _, np := range mustSearchProfiles(b) {
		if np.name != "mix4-01" && np.name != "mix8-04" {
			continue
		}
		b.Run(np.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search(np.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAdvisorSpeedup holds the advisor to its headline claim: >= 100x
// faster than simulating the what-if it answers.
func TestAdvisorSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	tc := shapeCases()[0]
	p := buildProfile(t, tc)
	alloc := []int{6, 2}

	simStart := time.Now()
	const simRuns = 3
	for i := 0; i < simRuns; i++ {
		runShape(t, tc, policy.NewStaticPart(alloc))
	}
	simPer := time.Since(simStart) / simRuns

	const evals = 2000
	evalStart := time.Now()
	for i := 0; i < evals; i++ {
		if _, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyPart, Alloc: alloc}); err != nil {
			t.Fatal(err)
		}
	}
	evalPer := time.Since(evalStart) / evals

	if evalPer <= 0 {
		evalPer = time.Nanosecond
	}
	ratio := float64(simPer) / float64(evalPer)
	t.Logf("simulate %v vs predict %v per what-if: %.0fx", simPer, evalPer, ratio)
	if ratio < 100 {
		t.Errorf("advisor is only %.0fx faster than simulation (contract: >= 100x)", ratio)
	}
}
