package sim

import (
	"expvar"
	"sync"

	"nucache/internal/cpu"
)

var verifyErrMu sync.Mutex

// Runtime counters, published once per process under /debug/vars. They
// aggregate across every scheduler in the process (the experiment grid
// and the HTTP service share one accounting surface).
var (
	// JobsQueued counts jobs submitted to any scheduler.
	JobsQueued = expvar.NewInt("nucache_jobs_queued")
	// JobsRunning is the number of jobs executing right now (gauge). It
	// can briefly exceed the worker count: a deadline-killed job frees
	// its slot while the abandoned run drains in the background.
	JobsRunning = expvar.NewInt("nucache_jobs_running")
	// JobsDone counts jobs that completed successfully (cache hits
	// excluded — those never ran).
	JobsDone = expvar.NewInt("nucache_jobs_done")
	// JobsFailed counts jobs whose final attempt returned an error,
	// panicked, was shed, or exceeded its deadline.
	JobsFailed = expvar.NewInt("nucache_jobs_failed")
	// JobsShed counts jobs rejected because the admission queue was
	// full (KindOverload; HTTP 429 at the serving layer).
	JobsShed = expvar.NewInt("nucache_jobs_shed")
	// JobsRetried counts re-executions of transiently failed jobs.
	JobsRetried = expvar.NewInt("nucache_jobs_retried")
	// DeadlineKills counts jobs abandoned at their deadline.
	DeadlineKills = expvar.NewInt("nucache_deadline_kills")
	// QueueDepth is the number of jobs waiting for a worker slot (gauge).
	QueueDepth = expvar.NewInt("nucache_queue_depth")
	// CacheHits / CacheMisses count content-addressed result lookups;
	// in-flight-deduplicated waiters count one miss per key resolution.
	CacheHits   = expvar.NewInt("nucache_cache_hits")
	CacheMisses = expvar.NewInt("nucache_cache_misses")
	// CacheQuarantined counts corrupt disk-cache entries moved aside.
	CacheQuarantined = expvar.NewInt("nucache_cache_quarantined")
	// CacheChecksumFails counts disk-cache entries whose integrity
	// envelope failed verification (corrupt-but-parseable JSON); every
	// such entry is also quarantined.
	CacheChecksumFails = expvar.NewInt("nucache_cache_checksum_fails")
	// CacheDiskErrors counts disk-tier write failures (the first one
	// degrades that cache to memory-only mode).
	CacheDiskErrors = expvar.NewInt("nucache_cache_disk_errors")
	// InstructionsRetired totals simulated instructions across all runs.
	// It is incremented exactly once per computed simulation (by
	// RunMachine); cached results never count again.
	InstructionsRetired = expvar.NewInt("nucache_sim_instructions")
	// WallNanos totals wall-clock nanoseconds spent executing jobs.
	WallNanos = expvar.NewInt("nucache_sim_wall_ns")
	// TracesReplayed counts simulations served by the record/replay fast
	// path; TraceFallbacks counts attempts that fell back to direct
	// simulation (tape budget exhausted or untaggable stream).
	TracesReplayed = expvar.NewInt("nucache_traces_replayed")
	TraceFallbacks = expvar.NewInt("nucache_trace_fallbacks")
	// The nucache_multireplay_* counters describe RunMachineGrid, which
	// only the benchmark's grid probes call; in a sweep or a server they
	// stay at zero. MultiReplayRuns counts multi-lane replays (one per
	// (mix, machine shape) row RunMachineGrid replayed as a whole);
	// MultiReplayLanes totals the policy lanes those runs replayed. Lanes
	// also count in TracesReplayed.
	MultiReplayRuns  = expvar.NewInt("nucache_multireplay_runs")
	MultiReplayLanes = expvar.NewInt("nucache_multireplay_lanes")
	// MultiReplayParallelRuns counts the subset of MultiReplayRuns that
	// replayed lanes on two or more goroutines (scheduler tokens were
	// available and GOMAXPROCS allowed it); MultiReplayLaneWorkers
	// totals the workers those runs used — the row's own slot plus every
	// borrowed token.
	MultiReplayParallelRuns = expvar.NewInt("nucache_multireplay_parallel_runs")
	MultiReplayLaneWorkers  = expvar.NewInt("nucache_multireplay_lane_workers")
	// MRCProfilesBuilt counts MRC profiling passes actually executed
	// (cache hits excluded); MRCProfileCacheHits counts advisor/profile
	// requests answered from an already-cached profile artifact.
	MRCProfilesBuilt    = expvar.NewInt("nucache_mrc_profiles_built")
	MRCProfileCacheHits = expvar.NewInt("nucache_mrc_profile_cache_hits")
	// AdviseRequests counts POST /v1/advise requests; AdviseVerifyMaxErr
	// tracks the worst relative IPC error a "verify": true request has
	// observed between the analytical model and full simulation (gauge,
	// monotone max).
	AdviseRequests     = expvar.NewInt("nucache_advise_requests")
	AdviseVerifyMaxErr = expvar.NewFloat("nucache_advise_verify_max_err")
)

// recordVerifyErr folds one verify delta into the AdviseVerifyMaxErr
// high-water mark. expvar.Float has no compare-and-swap, so serialize
// updates with a mutex (they are rare: one per verified advise).
func recordVerifyErr(relErr float64) {
	verifyErrMu.Lock()
	defer verifyErrMu.Unlock()
	if relErr > AdviseVerifyMaxErr.Value() {
		AdviseVerifyMaxErr.Set(relErr)
	}
}

// The tape-side counters live in internal/cpu (sim depends on cpu, not
// the reverse); publish them here under the same nucache_ namespace.
func init() {
	expvar.Publish("nucache_traces_recorded", expvar.Func(func() any { return cpu.TapesRecorded() }))
	expvar.Publish("nucache_trace_bytes", expvar.Func(func() any { return cpu.TapeBytes() }))
	expvar.Publish("nucache_tape_checksum_fails", expvar.Func(func() any { return cpu.TapeChecksumFails() }))
}
