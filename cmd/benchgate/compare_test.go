package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBase = `goos: linux
goarch: amd64
pkg: nucache
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkHotAccessLRU     	22760360	        60.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotAccessLRU     	23858845	        62.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotAccessNUcache 	18988933	        80.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotAccessNUcache 	17648882	        86.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotAccessUCP-8   	14031130	       100.0 ns/op	       7 B/op	       1 allocs/op
PASS
ok  	nucache	19.569s
`

const sampleHead = `BenchmarkHotAccessLRU     	22760360	        61.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotAccessLRU     	23858845	        61.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotAccessNUcache 	18988933	        50.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotAccessNUcache 	17648882	        54.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotAccessUCP-16  	14031130	        95.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotAccessDRRIP   	24219858	        53.50 ns/op	       0 B/op	       0 allocs/op
`

func TestParseAggregatesRepetitions(t *testing.T) {
	runs := Parse(sampleBase)
	lru, ok := runs["BenchmarkHotAccessLRU"]
	if !ok {
		t.Fatalf("missing LRU aggregate; got %v", keys(runs))
	}
	if lru.Runs != 2 {
		t.Fatalf("LRU runs = %d, want 2", lru.Runs)
	}
	if got := lru.NsPerOp(); math.Abs(got-61.0) > 1e-9 {
		t.Errorf("LRU mean ns/op = %v, want 61", got)
	}
	if got := runs["BenchmarkHotAccessUCP"]; got == nil {
		t.Errorf("GOMAXPROCS suffix not stripped; got %v", keys(runs))
	} else if got.AllocsPerOp() != 1 {
		t.Errorf("UCP allocs/op = %v, want 1", got.AllocsPerOp())
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	runs := Parse("PASS\nok\nBenchmarkBroken 12 notanumber ns/op\n")
	if len(runs) != 0 {
		t.Errorf("expected no aggregates, got %v", keys(runs))
	}
}

func TestCompareFlagsRegressionBeyondThreshold(t *testing.T) {
	base := Parse("BenchmarkX 10 100 ns/op 0 B/op 0 allocs/op\n")
	head := Parse("BenchmarkX 10 115 ns/op 0 B/op 0 allocs/op\n")
	rep := Compare(base, head, 0.10)
	if len(rep.Regressions) != 1 || rep.Regressions[0] != "BenchmarkX" {
		t.Fatalf("regressions = %v, want [BenchmarkX]", rep.Regressions)
	}
	// 10% exactly is allowed; only beyond the threshold fails.
	head = Parse("BenchmarkX 10 110 ns/op 0 B/op 0 allocs/op\n")
	if rep := Compare(base, head, 0.10); len(rep.Regressions) != 0 {
		t.Errorf("10%% exactly flagged as regression: %v", rep.Regressions)
	}
}

func TestCompareFlagsAllocationRegression(t *testing.T) {
	base := Parse("BenchmarkX 10 100 ns/op 0 B/op 0 allocs/op\n")
	head := Parse("BenchmarkX 10 100 ns/op 16 B/op 1 allocs/op\n")
	rep := Compare(base, head, 0.10)
	if len(rep.Regressions) != 1 {
		t.Fatalf("new allocation not flagged: %+v", rep.Results)
	}
}

func TestCompareNewAndRemovedAreNotGated(t *testing.T) {
	rep := Compare(Parse(sampleBase), Parse(sampleHead), 0.10)
	if len(rep.Regressions) != 0 {
		t.Fatalf("unexpected regressions: %v", rep.Regressions)
	}
	statuses := map[string]string{}
	for _, r := range rep.Results {
		statuses[r.Name] = r.Status
	}
	if statuses["BenchmarkHotAccessDRRIP"] != "new" {
		t.Errorf("DRRIP status = %q, want new", statuses["BenchmarkHotAccessDRRIP"])
	}
	if statuses["BenchmarkHotAccessNUcache"] != "ok" {
		t.Errorf("NUcache status = %q, want ok (improvement)", statuses["BenchmarkHotAccessNUcache"])
	}
	if rep.Compared != 3 || rep.New != 1 {
		t.Errorf("compared/new = %d/%d, want 3/1", rep.Compared, rep.New)
	}
}

func TestResultStringMentionsStatus(t *testing.T) {
	rep := Compare(
		Parse("BenchmarkX 10 100 ns/op 0 B/op 0 allocs/op\n"),
		Parse("BenchmarkX 10 150 ns/op 0 B/op 0 allocs/op\n"),
		0.10,
	)
	if len(rep.Results) != 1 {
		t.Fatalf("results = %+v", rep.Results)
	}
	s := rep.Results[0].String()
	if !strings.Contains(s, "regression") || !strings.Contains(s, "+50.0%") {
		t.Errorf("log line %q missing status or delta", s)
	}
}

func TestParseFloor(t *testing.T) {
	f, err := ParseFloor("BenchmarkGridReplaySerial/BenchmarkGridReplay=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if f.Num != "BenchmarkGridReplaySerial" || f.Den != "BenchmarkGridReplay" || f.Min != 0.9 {
		t.Fatalf("parsed %+v", f)
	}
	for _, bad := range []string{"", "A/B", "A=1.5", "/B=1", "A/=1", "A/B=0", "A/B=-1", "A/B=x"} {
		if _, err := ParseFloor(bad); err == nil {
			t.Errorf("ParseFloor(%q) accepted", bad)
		}
	}
}

func TestCheckFloor(t *testing.T) {
	head := Parse("BenchmarkSlow 10 200 ns/op\nBenchmarkFast 10 100 ns/op\n")

	res, err := CheckFloor(head, FloorSpec{Num: "BenchmarkSlow", Den: "BenchmarkFast", Min: 1.5})
	if err != nil || !res.OK || math.Abs(res.Ratio-2.0) > 1e-9 {
		t.Fatalf("2.0x vs floor 1.5: res %+v err %v", res, err)
	}
	if s := res.String(); !strings.Contains(s, "2.00x") || !strings.Contains(s, "ok") {
		t.Errorf("log line %q missing ratio or status", s)
	}

	res, err = CheckFloor(head, FloorSpec{Num: "BenchmarkSlow", Den: "BenchmarkFast", Min: 2.5})
	if err != nil || res.OK {
		t.Fatalf("2.0x vs floor 2.5 passed: res %+v err %v", res, err)
	}
	if s := res.String(); !strings.Contains(s, "below floor") {
		t.Errorf("failed floor log line %q does not say so", s)
	}

	// A missing benchmark is a configuration error, not a failed floor.
	if _, err := CheckFloor(head, FloorSpec{Num: "BenchmarkGone", Den: "BenchmarkFast", Min: 1}); err == nil {
		t.Error("missing numerator accepted")
	}
	if _, err := CheckFloor(head, FloorSpec{Num: "BenchmarkSlow", Den: "BenchmarkGone", Min: 1}); err == nil {
		t.Error("missing denominator accepted")
	}
}

func keys(m map[string]*Aggregate) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestParseFileRejectsEmptyLog: a log with no benchmark results (a bench
// run that failed to build or panicked) is an error for base and head
// alike, so the gate cannot pass with nothing compared.
func TestParseFileRejectsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# nucache\nFAIL\tnucache [build failed]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFile(empty); err == nil || !strings.Contains(err.Error(), "no benchmark results") {
		t.Fatalf("empty log: err = %v", err)
	}
	full := filepath.Join(dir, "base.txt")
	if err := os.WriteFile(full, []byte(sampleBase), 0o644); err != nil {
		t.Fatal(err)
	}
	if runs, err := parseFile(full); err != nil || len(runs) != 3 {
		t.Fatalf("sample log: %d benchmarks, err = %v", len(runs), err)
	}
}
