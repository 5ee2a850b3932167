package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nucache/internal/failpoint"
)

// Job is one unit of simulation work for the scheduler.
type Job struct {
	// Key is the result's content address. Empty disables caching and
	// in-flight deduplication for this job.
	Key string
	// Label names the job in errors (optional).
	Label string
	// Timeout bounds this job's execution (0 = the scheduler default).
	// A job past its deadline frees its worker slot and reports a
	// KindDeadline error; the abandoned run finishes in the background
	// and, when cacheable, still warms the cache for a later retry.
	Timeout time.Duration
	// New allocates the pointer a cached result is decoded into. It is
	// required for cacheable jobs and must match the dynamic type that
	// Run returns.
	New func() any
	// Run computes the result. The returned value must be
	// JSON-marshalable when Key is set.
	Run func(ctx context.Context) (any, error)
}

// Outcome is one job's result.
type Outcome struct {
	// Value is what Run returned, or what the cache decoded.
	Value any
	// Err is the job error (run failure, panic, deadline, shed load or
	// cancellation). Classify(Err) recovers the taxonomy kind.
	Err error
	// Cached reports whether the result was served from the cache.
	Cached bool
	// Attempts is how many times the body was started (0 for cache
	// hits and jobs shed before running).
	Attempts int
	// Wall is the execution time (zero for cache hits).
	Wall time.Duration
}

// RetryPolicy bounds re-execution of transiently failed jobs. Failures
// classified as deadline, panic, cancellation, invalid or overload are
// never retried (see ErrKind).
type RetryPolicy struct {
	// MaxAttempts is the total number of executions (1 or less = no
	// retries).
	MaxAttempts int
	// Backoff is the base delay before the first retry; each further
	// retry doubles it. The actual sleep is jittered uniformly over
	// [Backoff/2, Backoff) of the doubled value to decorrelate
	// retrying callers. The doubled delay is capped at 10*Backoff.
	Backoff time.Duration
}

// SchedulerConfig configures a scheduler beyond the worker count.
type SchedulerConfig struct {
	// Workers bounds concurrent job execution (0 = runtime.NumCPU()).
	Workers int
	// Cache is the content-addressed result cache (nil = disabled).
	Cache *Cache
	// QueueDepth bounds jobs waiting for a worker slot. When the queue
	// is full further jobs are shed immediately with a KindOverload
	// error instead of piling up goroutines (0 = unbounded, the
	// in-process/experiments default).
	QueueDepth int
	// DefaultTimeout is the per-job deadline when Job.Timeout is zero
	// (0 = none).
	DefaultTimeout time.Duration
	// Retry re-runs transiently failed jobs with jittered backoff.
	Retry RetryPolicy
}

// Scheduler is a bounded worker pool with a content-addressed result
// cache in front of it. At most `workers` jobs execute concurrently,
// across all RunAll/RunStream/Do calls sharing the scheduler; identical
// in-flight jobs are deduplicated so concurrent requests for the same
// simulation run it once. An optional admission queue sheds load once
// too many jobs are waiting, and per-job deadlines stop a runaway
// simulation from occupying a worker slot forever.
type Scheduler struct {
	workers        int
	cache          *Cache
	sem            chan struct{}
	queueCap       int
	queueLen       atomic.Int64
	defaultTimeout time.Duration
	retry          RetryPolicy
	mu             sync.Mutex
	inflight       map[string]chan struct{}
}

// NewScheduler builds a scheduler executing at most `workers` jobs at
// once (0 or negative = runtime.NumCPU()). cache may be nil to disable
// result caching. The queue is unbounded and jobs have no deadline —
// the historical in-process behavior; serving stacks should use
// NewSchedulerWith.
func NewScheduler(workers int, cache *Cache) *Scheduler {
	return NewSchedulerWith(SchedulerConfig{Workers: workers, Cache: cache})
}

// NewSchedulerWith builds a scheduler from a full configuration.
func NewSchedulerWith(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	return &Scheduler{
		workers:        cfg.Workers,
		cache:          cfg.Cache,
		sem:            make(chan struct{}, cfg.Workers),
		queueCap:       cfg.QueueDepth,
		defaultTimeout: cfg.DefaultTimeout,
		retry:          cfg.Retry,
		inflight:       map[string]chan struct{}{},
	}
}

// Workers reports the concurrency bound.
func (s *Scheduler) Workers() int { return s.workers }

// TryBorrow acquires up to max worker tokens without blocking and
// returns how many it got (possibly zero). A running job that can use
// extra parallelism internally — a RunMachineGrid row replaying its
// lanes on worker goroutines, which only the benchmark's grid probe
// runs — borrows the idle slots queued jobs would
// otherwise take, so the box never runs more than Workers() lanes plus
// jobs at once. Borrowed tokens must be given back with Return; since
// the borrow never blocks and the borrower already holds a slot,
// borrowing cannot deadlock the pool — at worst it gets zero and the
// caller degrades to serial.
func (s *Scheduler) TryBorrow(max int) int {
	n := 0
	for n < max {
		select {
		case s.sem <- struct{}{}:
			n++
		default:
			return n
		}
	}
	return n
}

// Return gives back n tokens acquired by TryBorrow.
func (s *Scheduler) Return(n int) {
	for ; n > 0; n-- {
		<-s.sem
	}
}

// Cache returns the scheduler's result cache (nil when disabled).
func (s *Scheduler) Cache() *Cache { return s.cache }

// QueueCap reports the admission-queue bound (0 = unbounded).
func (s *Scheduler) QueueCap() int { return s.queueCap }

// QueueLen reports how many jobs are waiting for a worker slot.
func (s *Scheduler) QueueLen() int { return int(s.queueLen.Load()) }

// Saturated reports whether the admission queue is full right now, so
// front ends can shed whole requests before fanning them out.
func (s *Scheduler) Saturated() bool {
	return s.queueCap > 0 && int(s.queueLen.Load()) >= s.queueCap
}

// Do runs one job through the cache and the pool, blocking until it
// completes, is shed by the admission queue, exceeds its deadline, or
// ctx is cancelled while queued (a job that has started runs to
// completion in the background even if abandoned).
func (s *Scheduler) Do(ctx context.Context, job Job) Outcome {
	JobsQueued.Add(1)
	cacheable := job.Key != "" && s.cache != nil && job.New != nil
	// waited records that this call slept behind another in-flight owner
	// of the same key. If that owner failed and we re-claim ownership,
	// the logical request already recorded its cache miss — counting
	// another would overstate misses for a single key resolution.
	waited := false
	for cacheable {
		into := job.New()
		if s.cache.Get(job.Key, into) {
			CacheHits.Add(1)
			return Outcome{Value: into, Cached: true}
		}
		s.mu.Lock()
		ch, busy := s.inflight[job.Key]
		if !busy {
			s.inflight[job.Key] = make(chan struct{})
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		select {
		case <-ch:
			// The owner finished; loop to re-check the cache. If the
			// owner failed, the next iteration claims ownership.
			waited = true
		case <-ctx.Done():
			return Outcome{Err: ctx.Err()}
		}
	}
	if cacheable {
		if !waited {
			CacheMisses.Add(1)
		}
		defer func() {
			s.mu.Lock()
			close(s.inflight[job.Key])
			delete(s.inflight, job.Key)
			s.mu.Unlock()
		}()
	}

	attempts := s.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var out Outcome
	for attempt := 1; ; attempt++ {
		out = s.attempt(ctx, job, cacheable)
		out.Attempts = attempt
		if out.Err == nil || attempt >= attempts || !Retryable(out.Err) {
			break
		}
		JobsRetried.Add(1)
		if !sleepBackoff(ctx, s.retry, attempt) {
			out.Err = ctx.Err()
			break
		}
	}
	if out.Err != nil {
		JobsFailed.Add(1)
	} else {
		JobsDone.Add(1)
	}
	return out
}

// attempt acquires a worker slot (shedding if the admission queue is
// full) and executes the job once under its deadline.
func (s *Scheduler) attempt(ctx context.Context, job Job, cacheable bool) Outcome {
	// Fast path: a free worker slot skips the admission queue.
	acquired := false
	select {
	case s.sem <- struct{}{}:
		acquired = true
	default:
	}
	if !acquired {
		n := s.queueLen.Add(1)
		QueueDepth.Add(1)
		if s.queueCap > 0 && n > int64(s.queueCap) {
			s.queueLen.Add(-1)
			QueueDepth.Add(-1)
			JobsShed.Add(1)
			return Outcome{Err: fmt.Errorf("%w: job %s shed (queue depth %d)",
				ErrOverloaded, labelOf(job), s.queueCap)}
		}
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			s.queueLen.Add(-1)
			QueueDepth.Add(-1)
			return Outcome{Err: ctx.Err()}
		}
		s.queueLen.Add(-1)
		QueueDepth.Add(-1)
	}
	defer func() { <-s.sem }()
	// Acquiring a slot can race a cancellation (the select above has both
	// channels ready); without this check a cancelled fan-out would keep
	// dispatching jobs as slots free up instead of draining promptly.
	if err := ctx.Err(); err != nil {
		return Outcome{Err: err}
	}

	// A job that has started runs to completion even if the caller goes
	// away (cancellation reaches the body cooperatively through its
	// context); only the deadline abandons a run, because that is the
	// contract protecting worker slots from runaway simulations.
	timeout := job.Timeout
	if timeout <= 0 {
		timeout = s.defaultTimeout
	}
	runCtx := ctx
	var kill <-chan time.Time
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		kill = timer.C
	}

	start := time.Now()
	done := make(chan Outcome, 1)
	go func() {
		JobsRunning.Add(1)
		v, err := runProtected(runCtx, job)
		wall := time.Since(start)
		JobsRunning.Add(-1)
		WallNanos.Add(wall.Nanoseconds())
		if err == nil && cacheable {
			// Best effort: a full disk or encode failure must not fail a
			// job whose simulation succeeded. Runs even after the caller
			// abandoned this attempt, so a deadline-killed simulation
			// still warms the cache for the client's retry.
			_ = s.cache.Put(job.Key, v)
		}
		done <- Outcome{Value: v, Err: err, Wall: wall}
	}()
	select {
	case out := <-done:
		return out
	case <-kill:
		// The worker slot is released on return; the abandoned run keeps
		// its own goroutine until the simulation finishes (and, when
		// cacheable, still warms the cache for a later retry).
		DeadlineKills.Add(1)
		return Outcome{
			Err: &JobError{Kind: KindDeadline, Err: fmt.Errorf(
				"sim: job %s exceeded deadline %s: %w",
				labelOf(job), timeout, context.DeadlineExceeded)},
			Wall: time.Since(start),
		}
	}
}

// sleepBackoff waits the jittered, exponentially grown delay before
// retry `attempt`+1, returning false if ctx was cancelled first.
func sleepBackoff(ctx context.Context, rp RetryPolicy, attempt int) bool {
	base := rp.Backoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := 10 * base
	d := base << (attempt - 1)
	if d > maxB || d <= 0 { // <= 0 guards shift overflow
		d = maxB
	}
	// Full-half jitter: uniform over [d/2, d).
	d = d/2 + rand.N(d/2+1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// RunAll executes every job through the pool and returns outcomes in
// submission order regardless of completion order, so fan-outs are
// deterministic to consumers. Jobs start in submission order: one
// feeder per worker takes them by index, so a grid submitted mix by
// mix runs mix by mix (with one worker, strictly in order). A job that
// has not started when ctx is cancelled still gets its Do call, which
// returns the cancellation at once.
func (s *Scheduler) RunAll(ctx context.Context, jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	feed(len(jobs), s.workers, func(i int) bool {
		out[i] = s.Do(ctx, jobs[i])
		return true
	})
	return out
}

// IndexedOutcome pairs an outcome with its job's submission index.
type IndexedOutcome struct {
	Index   int
	Outcome Outcome
}

// RunStream executes every job and delivers outcomes on the returned
// channel as they complete (completion order). The channel closes after
// the last job, or early once ctx is cancelled — every internal
// goroutine exits then even if the consumer has stopped reading, so an
// abandoned stream (e.g. an HTTP client that disconnected mid-sweep)
// cannot leak. Jobs are fed through a bounded set of feeders (2x the
// worker count) rather than one goroutine per job, so a single large
// sweep adds bounded pressure to the admission queue.
func (s *Scheduler) RunStream(ctx context.Context, jobs []Job) <-chan IndexedOutcome {
	ch := make(chan IndexedOutcome)
	go func() {
		defer close(ch)
		feed(len(jobs), 2*s.workers, func(i int) bool {
			if ctx.Err() != nil {
				return false
			}
			out := s.Do(ctx, jobs[i])
			select {
			case ch <- IndexedOutcome{Index: i, Outcome: out}:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return ch
}

// feed calls fn(i) for i = 0..n-1 on up to feeders goroutines, each
// taking the next index in order, and returns once every call has
// returned. A feeder whose fn returns false stops taking indices.
func feed(n, feeders int, fn func(i int) bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for f := min(feeders, n); f > 0; f-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if i := int(next.Add(1)) - 1; i >= n || !fn(i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// labelOf names a job in errors.
func labelOf(job Job) string {
	if job.Label != "" {
		return job.Label
	}
	if job.Key != "" {
		return job.Key
	}
	return "(unnamed)"
}

// runProtected invokes the job body, converting panics to errors so one
// bad simulation cannot take down a sweep or the serving process. The
// sim.sched.job failpoint sits at the dispatch boundary: the chaos
// suite kills or fails a sweep right as a grid cell starts executing.
func runProtected(ctx context.Context, job Job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &JobError{Kind: KindPanic, Err: fmt.Errorf(
				"sim: job %s panicked: %v", labelOf(job), r)}
		}
	}()
	if err := failpoint.Inject("sim.sched.job"); err != nil {
		return nil, err
	}
	return job.Run(ctx)
}
