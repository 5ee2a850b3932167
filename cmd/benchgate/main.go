// Command benchgate compares two `go test -bench` output files and fails
// when the head run regresses against the base run. It is the enforcement
// half of the CI benchmark gate (see .github/workflows/ci.yml): CI runs
// the Hot* benchmarks with -count on both the merge base and the head
// commit, then benchgate parses both logs, averages each benchmark's
// ns/op and allocs/op across repetitions, and exits non-zero if any
// benchmark got more than -threshold slower or started making more whole
// allocations per op (both means rounded, so a wobbling fraction does
// not flip the result).
//
// Benchmarks present only in head are reported as new and never gated
// (there is nothing to compare against); benchmarks present only in base
// are reported as removed but do not fail the gate either — deleting a
// benchmark is a review concern, not a perf regression. A log with no
// results at all, on either side, is a usage error (exit 2): a failed
// bench run must not pass the gate by comparing nothing.
//
// Usage:
//
// A -floor asserts a head-only ratio between two benchmarks from the
// same head log — "the serial grid replay must cost at least MIN times
// the parallel one" — for speedups that have no base-side benchmark to
// diff against:
//
//	benchgate -base base.txt -head head.txt [-threshold 0.10] [-out compare.json]
//	benchgate -base base.txt -head head.txt -floor 'BenchmarkGridReplay/BenchmarkGridReplayParallel=1.0'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// floorFlags collects repeated -floor values.
type floorFlags []string

func (f *floorFlags) String() string     { return fmt.Sprint(*f) }
func (f *floorFlags) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	base := flag.String("base", "", "bench output of the base commit (required)")
	head := flag.String("head", "", "bench output of the head commit (required)")
	threshold := flag.Float64("threshold", 0.10, "maximum allowed fractional ns/op regression")
	out := flag.String("out", "", "write the JSON comparison report here (optional)")
	var floors floorFlags
	flag.Var(&floors, "floor", "head-only ratio assertion NUM/DEN=MIN: mean ns/op of NUM over DEN must stay >= MIN (repeatable)")
	flag.Parse()

	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base and -head are required")
		flag.Usage()
		os.Exit(2)
	}

	baseRuns, err := parseFile(*base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	headRuns, err := parseFile(*head)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	report := Compare(baseRuns, headRuns, *threshold)

	for _, r := range report.Results {
		fmt.Println(r.String())
	}

	floorFailed := false
	for _, spec := range floors {
		f, err := ParseFloor(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		res, err := CheckFloor(headRuns, f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(res.String())
		report.Floors = append(report.Floors, res)
		if !res.OK {
			floorFailed = true
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
	}

	if len(report.Regressions) > 0 || floorFailed {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %d benchmark(s) regressed beyond %.0f%%, %d floor(s) missed\n",
			len(report.Regressions), *threshold*100, countMissed(report.Floors))
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (%d compared, %d new, %d floors, threshold %.0f%%)\n",
		report.Compared, report.New, len(report.Floors), *threshold*100)
}

func countMissed(floors []FloorResult) int {
	n := 0
	for _, f := range floors {
		if !f.OK {
			n++
		}
	}
	return n
}

// parseFile parses one bench log; a log without results is an error.
func parseFile(path string) (map[string]*Aggregate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	runs := Parse(string(data))
	if len(runs) == 0 {
		return nil, fmt.Errorf("no benchmark results in %s", path)
	}
	return runs, nil
}
