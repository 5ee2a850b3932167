// Command perfbench is the repository benchmark. It drives the nucache
// modules from outside, through their public entry points, and prints
// either the end-to-end metrics (tracing off) or the per-layer metrics
// of a separate traced run, each by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through the wrapper, which builds the binary from this
// checkout's sources first:
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
//
// Workloads: grid (the E7 paper grid), serve-cold (one-off /v1/sim
// requests against an in-process server) and serve-hot (cached /v1/sim
// hits plus /v1/advise). See README.md for what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"unsafe"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is every metric a --trace 0 run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"cpu_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"req_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// accessPolicies are the LLC policies of the paper grid, timed one by
// one over the captured LLC stream.
var accessPolicies = []string{"LRU", "NUcache", "UCP", "PIPP", "TADIP"}

// perLayer is every metric a --trace 1 run reports, on every workload.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"host.calib_ms", "ms"},
		{"host.calib_mem_ms", "ms"},
		{"failed_frac", "frac"},
		{"workload.next_ns", "ns"},
		{"cpu.record_ns_per_event", "ns"},
		{"cpu.tape_bytes_per_event", "B"},
		{"cpu.decode_ns_per_event", "ns"},
	}
	for _, p := range accessPolicies {
		m = append(m, metricSpec{"cache.access_ns." + p, "ns"})
	}
	for _, p := range accessPolicies {
		m = append(m, metricSpec{"cache.miss_ratio." + p, "frac"})
	}
	m = append(m, []metricSpec{
		{"cache.access_share", "frac"},
		{"memory.dram_access_ns", "ns"},
		{"cpu.replay_ns_per_event", "ns"},
		{"cpu.multireplay_ns_per_lane_event", "ns"},
		{"cpu.onepass_ratio", "x"},
		{"cpu.parallel_ratio", "x"},
		{"experiments.row_s", "s"},
		{"experiments.alone_s", "s"},
		{"sim.cpu_busy_frac", "frac"},
		{"sim.sched_wait_ms", "ms"},
		{"sim.cache_get_us", "us"},
		{"sim.cache_put_us", "us"},
		{"sim.request_key_us", "us"},
		{"json.encode_us.result", "us"},
		{"json.encode_us.prediction", "us"},
		{"json.decode_us.request", "us"},
		{"http.overhead_ms.sim_hit", "ms"},
		{"http.overhead_ms.advise", "ms"},
		{"mrc.build_ms", "ms"},
		{"mrc.predict_us", "us"},
		{"mrc.best_partition_us", "us"},
		{"mrc.best_deliways_us", "us"},
		{"journal.append_us.p50", "us"},
		{"journal.append_us.tail", "us"},
		{"sim.cache_hits", "count"},
		{"sim.cache_misses", "count"},
		{"cpu.traces_recorded", "count"},
		{"cpu.trace_bytes", "B"},
		{"sim.trace_fallbacks", "count"},
		{"sim.multireplay_lanes", "count"},
		{"sim.multireplay_parallel_runs", "count"},
		{"sim.jobs_shed", "count"},
		{"trace.overhead_frac", "frac"},
		{"trace.coverage_frac", "frac"},
	}...)
	return m
}()

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// short scales budgets and counts down for the package tests.
	short bool
	// workdir holds temporary journals, cache directories and the span
	// file; it lies inside the checkout.
	workdir string
	nproc   int
}

// outcome is what a workload reports back.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	// problems lists failed output checks and state guards; any entry
	// makes the run incorrect.
	problems []string
	// notes are human-readable lines printed before the JSON result.
	notes []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"grid":       runGrid,
	"serve-cold": runServeCold,
	"serve-hot":  runServeHot,
}

// buildResult checks that the outcome carries every metric the mode
// promises and shapes the final JSON object.
func buildResult(o *outcome, traced bool) (result, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := o.values[s.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// execute runs one workload and returns its result object, printing the
// human-readable report to stdout first.
func execute(name string, rc runConfig) (result, error) {
	run, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want grid, serve-cold or serve-hot)", name)
	}
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return result{}, err
	}
	host := hostStamp()
	calibMS, calibMemMS := calibrate(), calibrateMem()
	fmt.Printf("host: %s calib_ms=%.3f calib_mem_ms=%.3f\n", host, calibMS, calibMemMS)
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%v\n", name, rc.seed, rc.seconds, rc.trace)
	o, err := run(rc)
	if err != nil {
		return result{}, err
	}
	o.values["host.calib_ms"] = calibMS
	o.values["host.calib_mem_ms"] = calibMemMS
	o.values["failed_frac"] = float64(o.failed) / math.Max(1, float64(o.attempted))
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, p := range o.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	fmt.Printf("failed_frac=%.6f (%d failed of %d attempted)\n", o.values["failed_frac"], o.failed, o.attempted)
	specs := endToEnd
	if rc.trace {
		specs = perLayer
	}
	for _, s := range specs {
		if v, ok := o.values[s.name]; ok {
			fmt.Printf("  %-36s %14.6g %s\n", s.name, v, s.unit)
		}
	}
	return buildResult(o, rc.trace)
}

func main() {
	if spec := os.Getenv(setupEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	var (
		name    = flag.String("workload", "", "grid, serve-cold or serve-hot")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		digests = flag.Bool("write-digests", false, "recompute testdata/digests.json by direct simulation and exit")
	)
	flag.Parse()
	if *digests {
		if err := writeDigests(filepath.Join("perfbench", "testdata", "digests.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	rc := runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		workdir: workDir(),
		nproc:   runtime.NumCPU(),
	}
	res, err := execute(*name, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workDir is the scratch directory inside the checkout: under the build
// output directory the wrapper uses, so version control ignores it.
func workDir() string {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	return filepath.Join(base, "perfbench-work")
}

// hostStamp identifies the toolchain and machine a result came from.
func hostStamp() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), model)
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed CPU spin (median of five) so host speed drift
// is visible beside every result.
func calibrate() float64 {
	const iters = 20_000_000
	ms := make([]float64, 5)
	for i := range ms {
		start := nowNS()
		x := uint64(88172645463325252)
		for j := 0; j < iters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ms[i] = float64(nowNS()-start) / 1e6
	}
	sort.Float64s(ms)
	return ms[len(ms)/2]
}

// calibrateMem times a fixed dependent-load chase through 32 MiB (median
// of three). The CPU spin misses drift in the shared cache and memory,
// which the grid's multi-megabyte cache lanes feel. The array is mapped
// outside the Go heap and unmapped after, so it never counts towards the
// workload's peak_rss_mb.
func calibrateMem() float64 {
	const words, steps = 8 << 20, 1 << 20
	mem, err := syscall.Mmap(-1, 0, words*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0
	}
	defer syscall.Munmap(mem)
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), words)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle makes one cycle through every word.
	x := uint64(88172645463325252)
	for i := words - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	ms := make([]float64, 3)
	for k := range ms {
		start := nowNS()
		p := uint32(0)
		for s := 0; s < steps; s++ {
			p = next[p]
		}
		calibSink += uint64(p)
		ms[k] = float64(nowNS()-start) / 1e6
	}
	sort.Float64s(ms)
	return ms[1]
}
