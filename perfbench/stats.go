package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"nucache/internal/cpu"
	"nucache/internal/sim"
)

// processStart anchors nowNS; package initialization runs at process
// start, before main.
var processStart = time.Now()

// nowNS is monotonic nanoseconds since process start.
func nowNS() int64 { return int64(time.Since(processStart)) }

// median returns the middle value (mean of the two middle values for an
// even count) of xs, or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest-rank p-th percentile of sorted xs.
func rank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail is the highest of p99, p90 and p50 with at least ten samples
// beyond it, with its label and the sample count. With fewer than twenty
// samples no percentile qualifies and the maximum is reported instead.
type tailStat struct {
	value float64
	label string
	n     int
}

func tail(xs []float64) tailStat { return tailFrom(xs, 99) }

// tailFrom applies the tail rule starting from percentile top, so a
// workload can hold its tail at one percentile whatever its sample count.
func tailFrom(xs []float64, top float64) tailStat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []float64{99, 90, 50} {
		if p > top {
			continue
		}
		beyond := n - int(math.Ceil(p/100*float64(n)))
		if n > 0 && beyond >= 10 {
			return tailStat{rank(s, p), fmt.Sprintf("p%g", p), n}
		}
	}
	if n == 0 {
		return tailStat{0, "none", 0}
	}
	return tailStat{s[n-1], "max", n}
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// counters is one reading of the program's expvar counters.
type counters struct {
	instructions, cacheHits, cacheMisses, jobsQueued, jobsDone int64
	jobsShed, traceFallbacks, multiLanes, multiParallel        int64
	profilesBuilt, tapesRecorded, tapeBytes, simWallNS         int64
}

func readCounters() counters {
	return counters{
		instructions:   sim.InstructionsRetired.Value(),
		cacheHits:      sim.CacheHits.Value(),
		cacheMisses:    sim.CacheMisses.Value(),
		jobsQueued:     sim.JobsQueued.Value(),
		jobsDone:       sim.JobsDone.Value(),
		jobsShed:       sim.JobsShed.Value(),
		traceFallbacks: sim.TraceFallbacks.Value(),
		multiLanes:     sim.MultiReplayLanes.Value(),
		multiParallel:  sim.MultiReplayParallelRuns.Value(),
		profilesBuilt:  sim.MRCProfilesBuilt.Value(),
		tapesRecorded:  cpu.TapesRecorded(),
		tapeBytes:      cpu.TapeBytes(),
		simWallNS:      sim.WallNanos.Value(),
	}
}

// sub returns the counter deltas c - base.
func (c counters) sub(base counters) counters {
	return counters{
		instructions:   c.instructions - base.instructions,
		cacheHits:      c.cacheHits - base.cacheHits,
		cacheMisses:    c.cacheMisses - base.cacheMisses,
		jobsQueued:     c.jobsQueued - base.jobsQueued,
		jobsDone:       c.jobsDone - base.jobsDone,
		jobsShed:       c.jobsShed - base.jobsShed,
		traceFallbacks: c.traceFallbacks - base.traceFallbacks,
		multiLanes:     c.multiLanes - base.multiLanes,
		multiParallel:  c.multiParallel - base.multiParallel,
		profilesBuilt:  c.profilesBuilt - base.profilesBuilt,
		tapesRecorded:  c.tapesRecorded - base.tapesRecorded,
		tapeBytes:      c.tapeBytes - base.tapeBytes,
		simWallNS:      c.simWallNS - base.simWallNS,
	}
}

// putCounters records the per-layer counter metrics from a window's
// deltas.
func (o *outcome) putCounters(d counters) {
	o.values["sim.cache_hits"] = float64(d.cacheHits)
	o.values["sim.cache_misses"] = float64(d.cacheMisses)
	o.values["cpu.traces_recorded"] = float64(d.tapesRecorded)
	o.values["cpu.trace_bytes"] = float64(d.tapeBytes)
	o.values["sim.trace_fallbacks"] = float64(d.traceFallbacks)
	o.values["sim.multireplay_lanes"] = float64(d.multiLanes)
	o.values["sim.multireplay_parallel_runs"] = float64(d.multiParallel)
	o.values["sim.jobs_shed"] = float64(d.jobsShed)
}

// window is one timed stretch: wall, process CPU and counter deltas.
type window struct {
	startNS  int64
	startCPU float64
	base     counters
}

func openWindow() window {
	return window{startNS: nowNS(), startCPU: cpuSeconds(), base: readCounters()}
}

// close returns wall seconds, CPU seconds and counter deltas.
func (w window) close() (wall, cpuS float64, d counters) {
	return float64(nowNS()-w.startNS) / 1e9, cpuSeconds() - w.startCPU, readCounters().sub(w.base)
}
