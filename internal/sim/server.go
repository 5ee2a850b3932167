package sim

import (
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"

	"nucache/internal/workload"
)

// Server exposes the scheduler over HTTP. Handlers are stdlib-only and
// mounted by Handler(); cmd/nucache-serve wraps this in an http.Server
// with graceful shutdown.
//
// Failure contract: requests shed by the admission queue return
// 429 Too Many Requests with a Retry-After header; jobs killed by their
// deadline return 504 Gateway Timeout; invalid requests 400; everything
// else 500. Error bodies are {"error": ..., "kind": ...} with kind from
// the ErrKind taxonomy.
type Server struct {
	sched *Scheduler
	log   *slog.Logger
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithLogger sets the structured per-request logger (default
// slog.Default()).
func WithLogger(l *slog.Logger) ServerOption {
	return func(sv *Server) { sv.log = l }
}

// NewServer builds a server on top of a scheduler.
func NewServer(sched *Scheduler, opts ...ServerOption) *Server {
	sv := &Server{sched: sched, log: slog.Default()}
	for _, o := range opts {
		o(sv)
	}
	return sv
}

// Handler returns the route table:
//
//	POST /v1/sim      run (or fetch) one simulation, JSON in/out
//	POST /v1/sweep    fan a mixes×policies sweep across the pool (NDJSON)
//	POST /v1/profile  compute (or fetch) a mix's MRC profile artifact
//	POST /v1/advise   answer an allocation what-if from the profile
//	GET  /v1/catalog  benchmarks, standard mixes, policies, endpoints
//	GET  /healthz     pure liveness (the process answers)
//	GET  /readyz      readiness: queue, cache-disk
//	GET  /debug/vars  expvar counters
//	GET  /debug/pprof/  runtime profiles (net/http/pprof): the index, the
//	                    named profiles (heap, allocs, goroutine, ...) and
//	                    cmdline, profile, symbol and trace
//
// The profiles are exposed exactly as far as /debug/vars is: to anyone
// who can reach the listener.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sim", sv.handleSim)
	mux.HandleFunc("POST /v1/sweep", sv.handleSweep)
	mux.HandleFunc("POST /v1/profile", sv.handleProfile)
	mux.HandleFunc("POST /v1/advise", sv.handleAdvise)
	mux.HandleFunc("GET /v1/catalog", sv.handleCatalog)
	mux.HandleFunc("GET /healthz", sv.handleHealth)
	mux.HandleFunc("GET /readyz", sv.handleReady)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// SimResponse is the POST /v1/sim envelope. Result is deterministic and
// content-addressed by Key; Cached, Attempts and WallNS describe this
// particular serving of it.
type SimResponse struct {
	Key      string  `json:"key"`
	Cached   bool    `json:"cached"`
	Attempts int     `json:"attempts,omitempty"`
	WallNS   int64   `json:"wall_ns"`
	Result   *Result `json:"result"`
}

func (sv *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		badRequest(w, err)
		return
	}
	out := sv.sched.Do(r.Context(), JobFor(req))
	sv.logJob(r, "sim", req, out)
	if out.Err != nil {
		sv.jobError(w, out.Err)
		return
	}
	writeJSON(w, http.StatusOK, SimResponse{
		Key:      req.Key(),
		Cached:   out.Cached,
		Attempts: out.Attempts,
		WallNS:   out.Wall.Nanoseconds(),
		Result:   out.Value.(*Result),
	})
}

// logJob emits one structured log line per job served.
func (sv *Server) logJob(r *http.Request, route string, req Request, out Outcome) {
	attrs := []any{
		"route", route,
		"remote", r.RemoteAddr,
		"key", req.Key(),
		"bench", req.Bench,
		"mix", req.Mix,
		"policy", req.Policy,
		"cached", out.Cached,
		"attempts", out.Attempts,
		"wall_ms", out.Wall.Milliseconds(),
	}
	if out.Err != nil {
		attrs = append(attrs, "error", out.Err.Error(), "kind", Classify(out.Err).String())
		sv.log.Warn("job failed", attrs...)
		return
	}
	sv.log.Info("job served", attrs...)
}

// jobError writes a failed outcome using the taxonomy's HTTP mapping.
func (sv *Server) jobError(w http.ResponseWriter, err error) {
	kind := Classify(err)
	status := http.StatusInternalServerError
	switch kind {
	case KindInvalid:
		status = http.StatusBadRequest
	case KindOverload:
		status = http.StatusTooManyRequests
		setRetryAfter(w)
	case KindDeadline:
		status = http.StatusGatewayTimeout
	case KindCanceled:
		// The client went away; 499 (nginx convention) is recorded in
		// logs even though nobody reads the response.
		status = 499
	}
	writeJSON(w, status, map[string]string{
		"error": err.Error(),
		"kind":  kind.String(),
	})
}

// retryAfterBase is the base Retry-After hint, in seconds, returned
// with 429 responses.
const retryAfterBase = 1

func setRetryAfter(w http.ResponseWriter) {
	// Uniform over [base, 2·base] in whole seconds: a pool of shed
	// clients that all obey Retry-After verbatim re-arrives spread
	// across a full base window instead of as one synchronized wave.
	secs := retryAfterBase + rand.N(retryAfterBase+1)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// SweepRequest describes a fan-out: every listed mix under every listed
// policy. Mixes defaults to the standard list for Cores; Policies
// defaults to the paper's comparison lineup.
type SweepRequest struct {
	// Cores selects the standard mix list (2, 4 or 8) when Mixes is
	// empty.
	Cores int `json:"cores,omitempty"`
	// Mixes are standard mix names (e.g. "mix4-01").
	Mixes []string `json:"mixes,omitempty"`
	// Policies are policy names (default Lineup).
	Policies []string `json:"policies,omitempty"`
	// Budget, Seed, DeliWays, L2, DRAM, Prefetch apply to every job.
	Budget   uint64 `json:"budget,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	DeliWays int    `json:"deliways,omitempty"`
	L2       bool   `json:"l2,omitempty"`
	DRAM     bool   `json:"dram,omitempty"`
	Prefetch int    `json:"prefetch,omitempty"`
	// TimeoutMS overrides the per-job deadline for every job in the
	// sweep (0 = server default). Serving knob only; never part of the
	// result's content address.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// expand turns the sweep into concrete requests, mix-major.
func (sw SweepRequest) expand() ([]Request, error) {
	mixes := sw.Mixes
	if len(mixes) == 0 {
		widths := workload.MixWidths()
		if !slices.Contains(widths, sw.Cores) {
			return nil, fmt.Errorf("sim: sweep needs mixes, or cores in %v", widths)
		}
		for _, m := range workload.MixesFor(sw.Cores) {
			mixes = append(mixes, m.Name)
		}
	}
	policies := sw.Policies
	if len(policies) == 0 {
		policies = Lineup()
	}
	var reqs []Request
	for _, m := range mixes {
		for _, p := range policies {
			req := Request{
				Mix: m, Policy: p,
				Budget: sw.Budget, Seed: sw.Seed, DeliWays: sw.DeliWays,
				L2: sw.L2, DRAM: sw.DRAM, Prefetch: sw.Prefetch,
				TimeoutMS: sw.TimeoutMS,
			}.Normalize()
			if err := req.Validate(); err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
		}
	}
	return reqs, nil
}

// SweepEvent is one NDJSON line of the sweep stream: a "result" per
// completed job (completion order), then a final "done" summary.
type SweepEvent struct {
	Type   string  `json:"type"` // "result" | "done"
	Index  int     `json:"index"`
	Mix    string  `json:"mix,omitempty"`
	Policy string  `json:"policy,omitempty"`
	Key    string  `json:"key,omitempty"`
	Cached bool    `json:"cached,omitempty"`
	Error  string  `json:"error,omitempty"`
	Kind   string  `json:"kind,omitempty"` // error taxonomy kind, set with Error
	Result *Result `json:"result,omitempty"`
	// Summary fields (type "done").
	Total  int `json:"total,omitempty"`
	Failed int `json:"failed,omitempty"`
}

func (sv *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sw SweepRequest
	if err := decodeJSON(w, r, &sw); err != nil {
		return
	}
	reqs, err := sw.expand()
	if err != nil {
		badRequest(w, err)
		return
	}
	// Shed the whole sweep up front while headers can still say so;
	// jobs shed mid-stream surface as overload error events instead.
	if sv.sched.Saturated() {
		JobsShed.Add(int64(len(reqs)))
		setRetryAfter(w)
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": ErrOverloaded.Error(),
			"kind":  KindOverload.String(),
		})
		return
	}
	jobs := make([]Job, len(reqs))
	for i, req := range reqs {
		jobs[i] = JobFor(req)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	failed := 0
	writable := true
	for io := range sv.sched.RunStream(r.Context(), jobs) {
		sv.logJob(r, "sweep", reqs[io.Index], io.Outcome)
		if io.Outcome.Err != nil {
			failed++
		}
		if !writable {
			// Client went away; keep draining so in-flight jobs complete
			// and warm the cache for the retry. (RunStream itself stops
			// once the request context is cancelled.)
			continue
		}
		req := reqs[io.Index]
		ev := SweepEvent{
			Type: "result", Index: io.Index,
			Mix: req.Mix, Policy: req.Policy,
			Key: req.Key(), Cached: io.Outcome.Cached,
		}
		if io.Outcome.Err != nil {
			ev.Error = io.Outcome.Err.Error()
			ev.Kind = Classify(io.Outcome.Err).String()
		} else {
			ev.Result = io.Outcome.Value.(*Result)
		}
		if enc.Encode(ev) != nil {
			writable = false
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if writable {
		_ = enc.Encode(SweepEvent{Type: "done", Total: len(jobs), Failed: failed})
	}
}

// Catalog is the GET /v1/catalog payload.
type Catalog struct {
	Benchmarks []CatalogBenchmark `json:"benchmarks"`
	Mixes      []CatalogMix       `json:"mixes"`
	Policies   []string           `json:"policies"`
	// Endpoints advertises the API surface (clients discover the
	// advisor endpoints here).
	Endpoints []string `json:"endpoints"`
}

type CatalogBenchmark struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Description string `json:"description"`
}

type CatalogMix struct {
	Name    string   `json:"name"`
	Cores   int      `json:"cores"`
	Members []string `json:"members"`
}

func (sv *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	cat := Catalog{
		Policies: Policies(),
		Endpoints: []string{
			"POST /v1/sim", "POST /v1/sweep", "POST /v1/profile",
			"POST /v1/advise", "GET /v1/catalog", "GET /healthz",
			"GET /readyz", "GET /debug/vars", "GET /debug/pprof/",
			"GET /debug/pprof/cmdline", "GET /debug/pprof/profile",
			"GET /debug/pprof/symbol", "POST /debug/pprof/symbol",
			"GET /debug/pprof/trace",
		},
	}
	for _, b := range workload.All() {
		cat.Benchmarks = append(cat.Benchmarks, CatalogBenchmark{
			Name: b.Name, Class: string(b.Class), Description: b.Description,
		})
	}
	for _, cores := range workload.MixWidths() {
		for _, m := range workload.MixesFor(cores) {
			cat.Mixes = append(cat.Mixes, CatalogMix{
				Name: m.Name, Cores: cores, Members: m.Members,
			})
		}
	}
	writeJSON(w, http.StatusOK, cat)
}

// handleHealth is pure liveness: the process is up and can answer. All
// degradation state — queue pressure, cache-disk health — lives on
// /readyz, so orchestrators restarting on failed liveness probes never
// kill a server that is merely degraded.
func (sv *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": sv.sched.Workers(),
	})
}

// handleReady reports readiness: the queue and the cache disk tier.
// Status degrades to "degraded" — still HTTP 200; the server serves
// from memory — only when a configured capability has been lost.
func (sv *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	ready := map[string]any{
		"status":      "ok",
		"workers":     sv.sched.Workers(),
		"queue_depth": sv.sched.QueueLen(),
		"queue_cap":   sv.sched.QueueCap(),
	}
	if c := sv.sched.Cache(); c != nil && c.Persistent() {
		if c.DiskHealthy() {
			ready["cache_disk"] = "ok"
		} else {
			// Still serving (memory-only); surfaced so operators see the
			// degradation without grepping logs.
			ready["cache_disk"] = "degraded"
			ready["status"] = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, ready)
}

// maxBodyBytes bounds request bodies; sweep specs are small.
const maxBodyBytes = 1 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		badRequest(w, fmt.Errorf("sim: bad request body: %w", err))
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// badRequest answers a request rejected before any job ran, with the
// same error body and kind as a job failing validation.
func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, map[string]string{
		"error": err.Error(),
		"kind":  KindInvalid.String(),
	})
}
