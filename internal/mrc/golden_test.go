package mrc_test

// Golden pin for the advisor: the profile → prediction pipeline over
// the flat reference shape, together with the simulation numbers each
// prediction is held to and their deltas, recorded byte-for-byte.
//
//	go test ./internal/mrc -run TestAdvisorGolden -update
//
// Regenerate ONLY when a PR deliberately changes profiling or model
// semantics. The exact rows (part allocations) double as a machine-
// checked statement of the exactness contract: their recorded deltas
// are zero, and stay zero.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nucache/internal/cpu"
	"nucache/internal/mrc"
	"nucache/internal/policy"
	"nucache/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenRow is one what-if: the model's answer next to the simulation's.
type goldenRow struct {
	Label      string          `json:"label"`
	Prediction *mrc.Prediction `json:"prediction"`
	Simulated  []simCore       `json:"simulated"`
	// HitsDelta is the summed |predicted - simulated| hit count; zero on
	// the exact rows by contract.
	HitsDelta uint64 `json:"hits_delta"`
	// CyclesDelta likewise for cycles (zero for exact rows under flat
	// memory).
	CyclesDelta uint64 `json:"cycles_delta"`
}

type simCore struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Cycles uint64 `json:"cycles"`
}

func goldenDelta(pred *mrc.Prediction, res []cpu.CoreResult) goldenRow {
	row := goldenRow{Prediction: pred}
	for i, r := range res {
		row.Simulated = append(row.Simulated, simCore{Hits: r.LLCHits, Misses: r.LLCMisses, Cycles: r.Cycles})
		if i < len(pred.PerCore) {
			row.HitsDelta += absDiff(pred.PerCore[i].Hits, r.LLCHits)
			row.CyclesDelta += absDiff(pred.PerCore[i].Cycles, r.Cycles)
		}
	}
	return row
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestAdvisorGolden(t *testing.T) {
	tc := shapeCases()[0] // flat: 2 cores, 8-way 64KB LLC, art-like + swim-like
	p := buildProfile(t, tc)

	var rows []goldenRow
	addPart := func(label string, alloc []int) {
		pred, err := mrc.Predict(p, mrc.WhatIf{Policy: mrc.PolicyPart, Alloc: alloc})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res := runShape(t, tc, policy.NewStaticPart(pred.Alloc))
		row := goldenDelta(pred, res)
		row.Label = label
		rows = append(rows, row)
	}
	addShared := func(label, polName string, deliWays int) {
		pred, err := mrc.Predict(p, mrc.WhatIf{Policy: polName, DeliWays: deliWays})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		simName := "LRU"
		if polName == mrc.PolicyNUcache {
			simName = "NUcache"
		}
		pol, err := sim.BuildPolicy(simName, tc.cfg.Cores, tc.cfg.LLC.Ways, deliWays)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res := runShape(t, tc, pol)
		row := goldenDelta(pred, res)
		row.Label = label
		rows = append(rows, row)
	}

	addPart("part-even", nil)
	addPart("part-1-7", []int{1, 7})
	addPart("part-6-2", []int{6, 2})
	best, err := mrc.BestPartition(p)
	if err != nil {
		t.Fatalf("best partition: %v", err)
	}
	addPart("part-best", best.Alloc)
	addShared("lru", mrc.PolicyLRU, 0)
	addShared("nucache-d0", mrc.PolicyNUcache, 0)
	addShared("nucache-d6", mrc.PolicyNUcache, 6)

	for _, row := range rows {
		if row.Prediction.HitsExact && row.HitsDelta != 0 {
			t.Errorf("%s: exact row has hit delta %d", row.Label, row.HitsDelta)
		}
		if row.Prediction.CyclesExact && row.CyclesDelta != 0 {
			t.Errorf("%s: exact row has cycle delta %d", row.Label, row.CyclesDelta)
		}
	}

	blob, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", "golden", "advisor-flat.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", path, len(rows))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(want, blob) {
		t.Errorf("advisor golden drifted (re-run with -update if the change is deliberate)\n--- golden ---\n%.600s\n--- got ---\n%.600s", want, blob)
	}
}
