// Command nucache-serve runs the simulator as an HTTP/JSON service: a
// bounded worker pool executes simulation jobs across all host cores,
// and a content-addressed result cache (in-memory LRU, optionally
// persisted to disk) serves repeated requests without re-simulating.
//
// Endpoints:
//
//	POST /v1/sim      one simulation, JSON in/out
//	POST /v1/sweep    mixes×policies fan-out, NDJSON progress stream
//	POST /v1/profile  miss-ratio-curve profile of a mix, JSON in/out
//	POST /v1/advise   capacity-advisor answers from a mix's profile
//	GET  /v1/catalog  benchmarks, standard mixes, policies
//	GET  /healthz     pure liveness
//	GET  /readyz      readiness: queue, cache disk
//	GET  /debug/vars  runtime counters (expvar)
//	GET  /debug/pprof/  runtime profiles (net/http/pprof), e.g.
//	                    /debug/pprof/heap?debug=1
//
// Fault tolerance: every job runs under a deadline (-deadline, or a
// per-request "timeout_ms" override) so a runaway simulation frees its
// worker slot; the admission queue is bounded (-queue) and excess load
// is shed with HTTP 429 + Retry-After instead of piling up goroutines;
// transiently failed jobs are retried with jittered backoff (-retries,
// -retry-backoff); and a corrupt or unwritable -cachedir degrades to
// memory-only serving instead of failing requests.
//
// Examples:
//
//	nucache-serve -addr :8080
//	nucache-serve -addr :8080 -deadline 2m -queue 128 -retries 1
//	curl -s localhost:8080/v1/sim -d '{"mix":"mix4-01","policy":"NUcache"}'
//	curl -s localhost:8080/v1/sim -d '{"mix":"mix4-01","timeout_ms":5000}'
//	curl -sN localhost:8080/v1/sweep -d '{"cores":4,"budget":1000000}'
//
// The process drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"nucache/internal/sim"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "max concurrent simulations (0 = NumCPU)")
		cacheCap = flag.Int("cache", 4096, "in-memory result-cache entries")
		cacheDir = flag.String("cachedir", "", "persist results as JSON under this directory (empty = memory only)")
		queue    = flag.Int("queue", 0, "admission-queue depth before load is shed with 429 (0 = 8x workers, <0 = unbounded)")
		deadline = flag.Duration("deadline", 5*time.Minute, "default per-job deadline; requests override with timeout_ms (0 = none)")
		retries  = flag.Int("retries", 1, "retries for transiently failed jobs (0 = none)")
		backoff  = flag.Duration("retry-backoff", 100*time.Millisecond, "base jittered backoff between retries")
		timeout  = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	nworkers := *workers
	if nworkers <= 0 {
		nworkers = runtime.NumCPU()
	}
	depth := *queue
	switch {
	case depth == 0:
		depth = 8 * nworkers
	case depth < 0:
		depth = 0 // unbounded
	}
	sched := sim.NewSchedulerWith(sim.SchedulerConfig{
		Workers:        nworkers,
		Cache:          sim.NewCache(*cacheCap, *cacheDir),
		QueueDepth:     depth,
		DefaultTimeout: *deadline,
		Retry:          sim.RetryPolicy{MaxAttempts: 1 + *retries, Backoff: *backoff},
	})
	srv := &http.Server{
		Handler:           sim.NewServer(sched, sim.WithLogger(logger)).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before announcing so ":0" (ephemeral port, used by the smoke
	// tests) reports the actual bound address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nucache-serve:", err)
		os.Exit(1)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "nucache-serve: listening on %s (%d workers, queue %d, deadline %v, cache %d entries)\n",
		ln.Addr(), sched.Workers(), sched.QueueCap(), *deadline, *cacheCap)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "nucache-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "nucache-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "nucache-serve: shutdown:", err)
		os.Exit(1)
	}
}
