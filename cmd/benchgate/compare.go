package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Aggregate accumulates one benchmark's repetitions (from -count=N runs)
// and reports their arithmetic means. The mean over several repetitions
// smooths scheduler noise without requiring benchstat in the toolchain.
type Aggregate struct {
	Name    string
	Runs    int
	nsSum   float64
	allocs  float64
	hasNs   bool
	hasAllo bool
}

// NsPerOp returns the mean ns/op across repetitions.
func (a *Aggregate) NsPerOp() float64 {
	if a.Runs == 0 {
		return 0
	}
	return a.nsSum / float64(a.Runs)
}

// AllocsPerOp returns the mean allocs/op across repetitions (0 when the
// run lacked -benchmem).
func (a *Aggregate) AllocsPerOp() float64 {
	if a.Runs == 0 {
		return 0
	}
	return a.allocs / float64(a.Runs)
}

// Parse extracts benchmark result lines from `go test -bench` output,
// aggregating repeated lines (from -count) by benchmark name. The
// GOMAXPROCS suffix ("-8") is stripped so logs from machines with
// different core counts compare by benchmark identity.
func Parse(output string) map[string]*Aggregate {
	runs := make(map[string]*Aggregate)
	for _, line := range strings.Split(output, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; after it come value/unit pairs.
		a := runs[name]
		if a == nil {
			a = &Aggregate{Name: name}
			runs[name] = a
		}
		counted := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				a.nsSum += v
				a.hasNs = true
				counted = true
			case "allocs/op":
				a.allocs += v
				a.hasAllo = true
			}
		}
		if counted {
			a.Runs++
		}
	}
	for name, a := range runs {
		if !a.hasNs {
			delete(runs, name)
		}
	}
	return runs
}

// FloorSpec is one -floor assertion: the mean ns/op of Num divided by
// the mean ns/op of Den (both from the HEAD log only) must stay at or
// above Min. It gates relative speedups that have no base-side
// counterpart — e.g. the serial-vs-parallel grid replay ratio, where
// both benchmarks live in the same head commit.
type FloorSpec struct {
	Num string  `json:"num"`
	Den string  `json:"den"`
	Min float64 `json:"min"`
}

// ParseFloor parses "BenchName/BenchName=1.5" into a FloorSpec.
func ParseFloor(s string) (FloorSpec, error) {
	name, minStr, ok := strings.Cut(s, "=")
	if !ok {
		return FloorSpec{}, fmt.Errorf("floor %q: want NUM/DEN=MIN", s)
	}
	num, den, ok := strings.Cut(name, "/")
	if !ok || num == "" || den == "" {
		return FloorSpec{}, fmt.Errorf("floor %q: want NUM/DEN=MIN", s)
	}
	min, err := strconv.ParseFloat(minStr, 64)
	if err != nil || min <= 0 {
		return FloorSpec{}, fmt.Errorf("floor %q: bad minimum %q", s, minStr)
	}
	return FloorSpec{Num: num, Den: den, Min: min}, nil
}

// FloorResult is one evaluated -floor assertion.
type FloorResult struct {
	FloorSpec
	Ratio float64 `json:"ratio"`
	OK    bool    `json:"ok"`
}

// CheckFloor evaluates one floor against the head aggregates. A missing
// or zero-time benchmark is an error (the caller exits 2: the gate is
// misconfigured, not failing).
func CheckFloor(head map[string]*Aggregate, f FloorSpec) (FloorResult, error) {
	num, ok := head[f.Num]
	if !ok || num.NsPerOp() == 0 {
		return FloorResult{}, fmt.Errorf("floor %s/%s: benchmark %s missing from head log", f.Num, f.Den, f.Num)
	}
	den, ok := head[f.Den]
	if !ok || den.NsPerOp() == 0 {
		return FloorResult{}, fmt.Errorf("floor %s/%s: benchmark %s missing from head log", f.Num, f.Den, f.Den)
	}
	ratio := num.NsPerOp() / den.NsPerOp()
	return FloorResult{FloorSpec: f, Ratio: ratio, OK: ratio >= f.Min}, nil
}

// String renders the floor check as one log line.
func (r FloorResult) String() string {
	status := "ok"
	if !r.OK {
		status = "below floor"
	}
	return fmt.Sprintf("%s / %s = %.2fx (floor %.2fx)  %s", r.Num, r.Den, r.Ratio, r.Min, status)
}

// Result is one benchmark's base-vs-head comparison.
type Result struct {
	Name       string  `json:"name"`
	BaseNsOp   float64 `json:"base_ns_op,omitempty"`
	HeadNsOp   float64 `json:"head_ns_op"`
	Delta      float64 `json:"delta,omitempty"` // fractional ns/op change
	BaseAllocs float64 `json:"base_allocs_op"`
	HeadAllocs float64 `json:"head_allocs_op"`
	Status     string  `json:"status"` // "ok" | "regression" | "new" | "removed"
}

// String renders the result as one aligned log line.
func (r Result) String() string {
	switch r.Status {
	case "new":
		return fmt.Sprintf("%-32s %10.2f ns/op %8.1f allocs/op  (new)", r.Name, r.HeadNsOp, r.HeadAllocs)
	case "removed":
		return fmt.Sprintf("%-32s %10.2f ns/op  (removed)", r.Name, r.BaseNsOp)
	}
	return fmt.Sprintf("%-32s %10.2f -> %8.2f ns/op (%+.1f%%) %8.1f -> %.1f allocs/op  %s",
		r.Name, r.BaseNsOp, r.HeadNsOp, r.Delta*100, r.BaseAllocs, r.HeadAllocs, r.Status)
}

// Report is the full comparison, serialized to the -out JSON artifact.
type Report struct {
	Threshold   float64  `json:"threshold"`
	Compared    int      `json:"compared"`
	New         int      `json:"new"`
	Results     []Result `json:"results"`
	Regressions []string `json:"regressions,omitempty"`
	// Floors holds the evaluated -floor assertions (head-only ratios).
	Floors []FloorResult `json:"floors,omitempty"`
}

// Compare matches head benchmarks against base and flags regressions: a
// mean ns/op increase beyond threshold, or any increase in whole
// allocations per op (the hot path is required to stay allocation-free,
// so a single new allocation per op is always a failure, not a
// percentage question). Both allocs/op means are rounded before they
// are compared: go test prints a benchmark that amortizes a fraction of
// an allocation per op as either neighbouring integer from run to run,
// so the unrounded mean can rise on identical code.
func Compare(base, head map[string]*Aggregate, threshold float64) *Report {
	rep := &Report{Threshold: threshold}

	names := make([]string, 0, len(head))
	for name := range head {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		h := head[name]
		b, ok := base[name]
		if !ok || b.NsPerOp() == 0 {
			rep.New++
			rep.Results = append(rep.Results, Result{
				Name: name, HeadNsOp: h.NsPerOp(), HeadAllocs: h.AllocsPerOp(), Status: "new",
			})
			continue
		}
		rep.Compared++
		r := Result{
			Name:       name,
			BaseNsOp:   b.NsPerOp(),
			HeadNsOp:   h.NsPerOp(),
			Delta:      (h.NsPerOp() - b.NsPerOp()) / b.NsPerOp(),
			BaseAllocs: b.AllocsPerOp(),
			HeadAllocs: h.AllocsPerOp(),
			Status:     "ok",
		}
		allocRegressed := h.hasAllo && b.hasAllo && math.Round(h.AllocsPerOp()) > math.Round(b.AllocsPerOp())
		if r.Delta > threshold || allocRegressed {
			r.Status = "regression"
			rep.Regressions = append(rep.Regressions, name)
		}
		rep.Results = append(rep.Results, r)
	}

	removed := make([]string, 0)
	for name := range base {
		if _, ok := head[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		rep.Results = append(rep.Results, Result{
			Name: name, BaseNsOp: base[name].NsPerOp(), Status: "removed",
		})
	}
	return rep
}
