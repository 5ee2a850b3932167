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
	// DeliWays is the candidate split for "nucache" (0 = default 6,
	// negative = none).
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

// EvaluateAdvise answers the request's what-if against a profile. Pure
// model evaluation: no simulation, no I/O.
func EvaluateAdvise(p *mrc.Profile, req AdviseRequest) (*mrc.Prediction, error) {
	pol := strings.ToLower(req.Policy)
	if pol == "" {
		pol = mrc.PolicyPart
	}
	switch pol {
	case mrc.PolicyPart:
		if req.Best {
			return mrc.BestPartition(p)
		}
		return mrc.Predict(p, mrc.WhatIf{Policy: pol, Alloc: req.Alloc})
	case mrc.PolicyLRU:
		return mrc.Predict(p, mrc.WhatIf{Policy: pol})
	case mrc.PolicyNUcache:
		if req.Best {
			return mrc.BestDeliWays(p)
		}
		return mrc.Predict(p, mrc.WhatIf{Policy: pol, DeliWays: req.DeliWays})
	default:
		return nil, invalid(fmt.Errorf("sim: unknown advisor policy %q", req.Policy))
	}
}

// VerifyRequest maps an answered prediction back onto the simulation
// request that realizes it — the slow-path fallback the model is
// checked against.
func (req AdviseRequest) VerifyRequest(pred *mrc.Prediction) Request {
	r := req.simRequest()
	// The advisor's model names ("part", "lru", "nucache") are catalog
	// policies: sim matches policy names case-insensitively.
	r.Policy = pred.Policy
	r.Alloc = slices.Clone(pred.Alloc)
	r.DeliWays = pred.DeliWays
	if pred.Policy == mrc.PolicyNUcache && pred.DeliWays == 0 {
		r.DeliWays = -1 // Normalize maps 0 to the default split
	}
	return r.Normalize()
}

// CompareVerify reports the model-vs-simulation delta of a verified
// advise: res is the result of simulating vreq, the request
// VerifyRequest mapped pred onto.
func CompareVerify(vreq Request, pred *mrc.Prediction, res *Result) *VerifyReport {
	v := &VerifyReport{Key: vreq.Key(), Result: res, HitsExact: true}
	for i := range pred.PerCore {
		if i >= len(res.PerCore) {
			break
		}
		p, s := &pred.PerCore[i], &res.PerCore[i]
		d := absDiff(p.Hits, s.LLCHits)
		if d != 0 {
			v.HitsExact = false
		}
		v.MaxHitsAbsErr = max(v.MaxHitsAbsErr, d)
		if s.IPC > 0 {
			v.MaxIPCRelErr = max(v.MaxIPCRelErr, math.Abs(p.IPC-s.IPC)/s.IPC)
		}
	}
	var simAcc, simMiss uint64
	for i := range res.PerCore {
		simAcc += res.PerCore[i].LLCAccesses
		simMiss += res.PerCore[i].LLCMisses
	}
	if simAcc > 0 {
		v.MissRateErr = math.Abs(pred.MissRate - float64(simMiss)/float64(simAcc))
	}
	return v
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
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
		badRequest(w, err)
		return
	}
	start := time.Now()
	p, cached, err := sv.fetchProfile(r.Context(), req)
	if err != nil {
		sv.jobError(w, err)
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
	req.ProfileRequest = req.ProfileRequest.Normalize()
	if err := req.Validate(); err != nil {
		badRequest(w, err)
		return
	}
	p, cached, err := sv.fetchProfile(r.Context(), req.ProfileRequest)
	if err != nil {
		sv.jobError(w, err)
		return
	}
	start := time.Now()
	pred, err := EvaluateAdvise(p, req)
	evalNS := time.Since(start).Nanoseconds()
	if err != nil {
		sv.jobError(w, err)
		return
	}
	resp := AdviseResponse{
		ProfileKey:    req.ProfileRequest.Key(),
		ProfileCached: cached,
		EvalNS:        evalNS,
		Prediction:    pred,
	}
	if req.Verify {
		vreq := req.VerifyRequest(pred)
		out := sv.sched.Do(r.Context(), JobFor(vreq))
		sv.logJob(r, "advise-verify", vreq, out)
		if out.Err != nil {
			sv.jobError(w, out.Err)
			return
		}
		resp.Verify = CompareVerify(vreq, pred, out.Value.(*Result))
		recordVerifyErr(resp.Verify.MaxIPCRelErr)
	}
	writeJSON(w, http.StatusOK, resp)
}
