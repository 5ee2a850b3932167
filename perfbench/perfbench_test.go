package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// TestMain lets the test binary serve as a set-up process, as the
// perfbench binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	os.Exit(m.Run())
}

// TestWorkloadsShort runs a short mode of every workload, untraced and
// traced, and checks that every named metric is printed with its unit,
// that the output checks and state guards pass, and that nothing failed.
func TestWorkloadsShort(t *testing.T) {
	seed := uint64(101)
	for _, name := range []string{"grid", "serve-cold", "serve-hot"} {
		for _, traced := range []bool{false, true} {
			seed++
			rc := runConfig{
				seed: seed, seconds: 1, trace: traced, short: true,
				workdir: t.TempDir(), nproc: runtime.NumCPU(),
			}
			res, err := execute(name, rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, s.name, m, s.unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if traced && res.Metrics["failed_frac"].Value != 0 {
				t.Errorf("%s: failed_frac %v", name, res.Metrics["failed_frac"].Value)
			}
		}
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if ts := tail(xs); ts.label != "p99" || ts.value != 990 || ts.n != 1000 {
		t.Errorf("tail of 1..1000 = %+v, want p99 990", ts)
	}
	if ts := tail(xs[:150]); ts.label != "p90" || ts.value != 135 {
		t.Errorf("tail of 1..150 = %+v, want p90 135", ts)
	}
	if ts := tail(xs[:12]); ts.label != "max" || ts.value != 12 {
		t.Errorf("tail of 1..12 = %+v, want max 12", ts)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 90},
	}
	self := selfTimes(spans)
	if self[1] != 40 || self[2] != 30 || self[4] != 10 {
		t.Errorf("self times %v, want root 40 (children cover 60), a 30, c 10", self)
	}
	if got := coverage(spans, 1); got != 0.7 {
		t.Errorf("coverage %v, want 0.7", got)
	}
}
