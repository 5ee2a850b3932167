package sim

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"time"

	"nucache/internal/mrc"
)

// AdviseRequest is one capacity what-if: the profile spec (which mix,
// on which machine) plus the allocation question. With Best set the
// advisor searches the allocation space instead of evaluating a single
// candidate; with Verify set it also runs the full simulation of the
// answered configuration and reports the model-vs-simulation delta.
type AdviseRequest struct {
	ProfileRequest
	// Policy selects the model: "part" (default), "lru" or "nucache".
	Policy string `json:"policy,omitempty"`
	// Alloc is the candidate per-core way split for "part".
	Alloc []int `json:"alloc,omitempty"`
	// Best searches for the argmax allocation ("part": partition space,
	// "nucache": DeliWays space) instead of evaluating a candidate.
	Best bool `json:"best,omitempty"`
	// DeliWays is the candidate split for "nucache", in Request's
	// encoding (0 = default 6, -1 = none).
	DeliWays int `json:"deliways,omitempty"`
	// Verify also runs the full simulation and reports the delta.
	Verify bool `json:"verify,omitempty"`
}

// VerifyReport is the model-vs-simulation delta of a verified advise.
type VerifyReport struct {
	// Key and Result identify and carry the verifying simulation.
	Key    string  `json:"key"`
	Result *Result `json:"result"`
	// HitsExact reports that every per-core LLC hit count matched
	// exactly (the contract for static partitions).
	HitsExact     bool    `json:"hits_exact"`
	MaxHitsAbsErr uint64  `json:"max_hits_abs_err"`
	MaxIPCRelErr  float64 `json:"max_ipc_rel_err"`
	MissRateErr   float64 `json:"miss_rate_err"`
}

// AdviseResponse is the POST /v1/advise envelope. EvalNS times the
// analytical model alone — the microseconds the whole subsystem
// exists for; profile acquisition and verification are reported
// separately.
type AdviseResponse struct {
	ProfileKey    string          `json:"profile_key"`
	ProfileCached bool            `json:"profile_cached"`
	EvalNS        int64           `json:"eval_ns"`
	Prediction    *mrc.Prediction `json:"prediction"`
	Verify        *VerifyReport   `json:"verify,omitempty"`
}

// model is the advisor model the request names: "part" when empty.
func (req AdviseRequest) model() string {
	if req.Policy == "" {
		return mrc.PolicyPart
	}
	return strings.ToLower(req.Policy)
}

// Validate checks a what-if whose profile spec is normalized: the one
// advisor-only rule (the model is "part", "lru" or "nucache"), then
// Request.Validate on the simulation the what-if maps onto. It
// resolves the mix once.
func (req AdviseRequest) Validate() error {
	switch req.model() {
	case mrc.PolicyPart, mrc.PolicyLRU, mrc.PolicyNUcache:
		return req.request().Validate()
	}
	return fmt.Errorf("sim: unknown advisor policy %q", req.Policy)
}

// request maps the what-if onto the simulation request that realizes
// it. The advisor's model names are catalog policies (sim matches
// policy names case-insensitively), and the fields keep the Request
// encoding.
func (req AdviseRequest) request() Request {
	r := req.simRequest()
	r.Policy, r.Alloc, r.DeliWays = req.model(), req.Alloc, req.DeliWays
	return r
}

// EvaluateAdvise answers the request's what-if against a profile. Pure
// model evaluation: no simulation, no I/O. Best searches the partition
// space under "part" and the DeliWays space under "nucache"; each model
// reads only its own fields, and the split is translated once into the
// literal one the simulation would build.
func EvaluateAdvise(p *mrc.Profile, req AdviseRequest) (*mrc.Prediction, error) {
	w := mrc.WhatIf{Policy: req.model(), Alloc: req.Alloc, DeliWays: req.request().Normalize().deliWays()}
	switch {
	case req.Best && w.Policy == mrc.PolicyPart:
		return mrc.BestPartition(p)
	case req.Best && w.Policy == mrc.PolicyNUcache:
		return mrc.BestDeliWays(p)
	}
	return mrc.Predict(p, w)
}

// Advise answers a what-if: it validates the request, fetches the mix's
// profile through profile (which reports whether it was cached),
// evaluates the model against it (timed alone, as EvalNS) and, with
// Verify set, simulates the answered configuration through simulate and
// reports the model-vs-simulation delta. /v1/advise passes its result
// cache and scheduler, nucache-advise ExecuteProfile and Execute. A
// rejected request fetches no profile and fails with KindInvalid.
func Advise(ctx context.Context, req AdviseRequest,
	profile func(context.Context, ProfileRequest) (*mrc.Profile, bool, error),
	simulate func(context.Context, Request) (*Result, error)) (*AdviseResponse, error) {
	req.ProfileRequest = req.ProfileRequest.Normalize()
	if err := req.Validate(); err != nil {
		return nil, invalid(err)
	}
	p, cached, err := profile(ctx, req.ProfileRequest)
	if err != nil {
		return nil, err
	}
	resp := &AdviseResponse{ProfileKey: req.ProfileRequest.Key(), ProfileCached: cached}
	start := time.Now()
	resp.Prediction, err = EvaluateAdvise(p, req)
	resp.EvalNS = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	if req.Verify {
		vreq := req.verifyRequest(resp.Prediction)
		res, err := simulate(ctx, vreq)
		if err != nil {
			return nil, err
		}
		resp.Verify = compareVerify(vreq, resp.Prediction, res)
		recordVerifyErr(resp.Verify.MaxIPCRelErr)
	}
	return resp, nil
}

// verifyRequest maps an answered prediction back onto the simulation
// request that realizes it — the slow-path fallback the model is
// checked against. A prediction's DeliWays is a literal split.
func (req AdviseRequest) verifyRequest(pred *mrc.Prediction) Request {
	req.Policy, req.Alloc, req.DeliWays = pred.Policy, slices.Clone(pred.Alloc), 0
	if pred.Policy == mrc.PolicyNUcache {
		req.DeliWays = DeliWaysField(pred.DeliWays)
	}
	return req.request().Normalize()
}

// compareVerify reports the model-vs-simulation delta of a verified
// advise: res is the result of simulating vreq, the request
// verifyRequest mapped pred onto.
func compareVerify(vreq Request, pred *mrc.Prediction, res *Result) *VerifyReport {
	v := &VerifyReport{Key: vreq.Key(), Result: res, HitsExact: true}
	var simAcc, simMiss uint64
	for i := range res.PerCore {
		s := &res.PerCore[i]
		simAcc += s.LLCAccesses
		simMiss += s.LLCMisses
		if i >= len(pred.PerCore) {
			continue
		}
		p := &pred.PerCore[i]
		d := max(p.Hits, s.LLCHits) - min(p.Hits, s.LLCHits)
		if d != 0 {
			v.HitsExact = false
		}
		v.MaxHitsAbsErr = max(v.MaxHitsAbsErr, d)
		if s.IPC > 0 {
			v.MaxIPCRelErr = max(v.MaxIPCRelErr, math.Abs(p.IPC-s.IPC)/s.IPC)
		}
	}
	if simAcc > 0 {
		v.MissRateErr = math.Abs(pred.MissRate - float64(simMiss)/float64(simAcc))
	}
	return v
}

// fetchProfile returns the mix's profile, preferring the scheduler's
// content-addressed cache (no job is queued on a hit — the advisor
// answers already-profiled mixes without touching the simulation
// pipeline) and scheduling the profiling pass otherwise. The cache
// validates the profiles it decodes, so an invalid cached entry is a
// miss on both lookups: the cache drops it and the pass recomputes it.
func (sv *Server) fetchProfile(ctx context.Context, req ProfileRequest) (*mrc.Profile, bool, error) {
	if c := sv.sched.Cache(); c != nil {
		p := new(mrc.Profile)
		if c.Get(req.Key(), p) {
			MRCProfileCacheHits.Add(1)
			return p, true, nil
		}
	}
	out := sv.sched.Do(ctx, ProfileJobFor(req))
	if out.Err != nil {
		return nil, false, out.Err
	}
	p := out.Value.(*mrc.Profile)
	if out.Cached {
		MRCProfileCacheHits.Add(1)
	}
	return p, out.Cached, nil
}

// ProfileResponse is the POST /v1/profile envelope.
type ProfileResponse struct {
	Key     string       `json:"key"`
	Cached  bool         `json:"cached"`
	WallNS  int64        `json:"wall_ns"`
	Profile *mrc.Profile `json:"profile"`
}

func (sv *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req ProfileRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		writeError(w, invalid(err))
		return
	}
	start := time.Now()
	p, cached, err := sv.fetchProfile(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ProfileResponse{
		Key:     req.Key(),
		Cached:  cached,
		WallNS:  time.Since(start).Nanoseconds(),
		Profile: p,
	})
}

func (sv *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	AdviseRequests.Add(1)
	var req AdviseRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	resp, err := Advise(r.Context(), req, sv.fetchProfile, func(ctx context.Context, vreq Request) (*Result, error) {
		out := sv.sched.Do(ctx, JobFor(vreq))
		sv.logJob(r, "advise-verify", vreq, out)
		if out.Err != nil {
			return nil, out.Err
		}
		return out.Value.(*Result), nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
