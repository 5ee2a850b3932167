package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"nucache/internal/mrc"
	"nucache/internal/sim"
	"nucache/internal/stats"
	"nucache/internal/workload"
)

// The serve-hot workload serves answers the server already has: set-up
// builds MRC profiles for a few mixes and warms their /v1/sim results
// under every grid policy; then nproc closed-loop clients send a fixed
// blend of cached /v1/sim hits and /v1/advise questions (a candidate
// partition, the best partition, NUcache's best DeliWays). No request
// simulates, so the time goes to HTTP, JSON, Request.Key hashing,
// result-cache reads and the mrc model.

const (
	hotSetups = 9
	// hotSlices is how many slices the window is cut into; the
	// end-to-end metrics are medians over slices.
	hotSlices = 10
)

type hotParams struct {
	budget   uint64
	profiles int
}

func hotParamsFor(rc runConfig) hotParams {
	if rc.short {
		return hotParams{budget: 20_000, profiles: 1}
	}
	return hotParams{budget: 100_000, profiles: 2}
}

// hotMixNames are the mixes serve-hot profiles. They are fixed rather
// than drawn from the seed: the cost of a best-partition search depends
// strongly on the profile, so drawing them would make every seed a
// different workload.
var hotMixNames = []string{"mix4-01", "mix4-06"}

// hotMixes are the mixes serve-hot profiles.
func hotMixes(p hotParams) []workload.Mix {
	var out []workload.Mix
	for _, name := range hotMixNames[:p.profiles] {
		out = append(out, mixByName(name))
	}
	return out
}

// hotSimSeed is the simulation seed of the profiles and warm results.
// Like the mixes it is fixed: the profile sets the cost of every advise
// query, so a seed-derived one made some seeds a quarter slower. The
// workload seed draws the request sequence.
const hotSimSeed = 5007

// hotWarmRequests are the /v1/sim requests set-up warms: every profiled
// mix under every grid policy.
func hotWarmRequests(p hotParams) []sim.Request {
	var out []sim.Request
	for _, m := range hotMixes(p) {
		for _, pol := range accessPolicies {
			out = append(out, sim.Request{Mix: m.Name, Policy: pol, Budget: p.budget, Seed: hotSimSeed}.Normalize())
		}
	}
	return out
}

// hotState is what set-up leaves for the timed window and the checks.
type hotState struct {
	profReqs  []sim.ProfileRequest
	profiles  []*mrc.Profile
	warm      []sim.Request
	warmBody  [][]byte
	warmRaw   [][]byte
	warmInstr []uint64
	// warmIdx maps a warm request body to its index.
	warmIdx map[string]int
}

// warmUp builds the profiles and warms the results through the server.
func (h *hotState) warmUp(st *stack, rc runConfig, p hotParams) error {
	cl := newClient(st.url, 1, nil)
	defer cl.close()
	*h = hotState{warmIdx: map[string]int{}}
	for _, m := range hotMixes(p) {
		pr := sim.ProfileRequest{Mix: m.Name, Budget: p.budget, Seed: hotSimSeed}
		body, _ := json.Marshal(pr)
		status, data, _, err := cl.post("/v1/profile", body, 0)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("serve-hot profile %s: status %d: %v", m.Name, status, err)
		}
		var resp sim.ProfileResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		h.profReqs = append(h.profReqs, pr)
		h.profiles = append(h.profiles, resp.Profile)
	}
	for i, req := range hotWarmRequests(p) {
		body, _ := json.Marshal(req)
		status, data, _, err := cl.post("/v1/sim", body, 0)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("serve-hot warm %s/%s: status %d: %v", req.Mix, req.Policy, status, err)
		}
		var sr simReply
		if err := json.Unmarshal(data, &sr); err != nil {
			return err
		}
		var res sim.Result
		if err := json.Unmarshal(sr.Result, &res); err != nil {
			return err
		}
		h.warm = append(h.warm, req)
		h.warmBody = append(h.warmBody, body)
		h.warmRaw = append(h.warmRaw, sr.Result)
		h.warmInstr = append(h.warmInstr, res.Instructions)
		h.warmIdx[string(body)] = i
	}
	return nil
}

// hotKinds names the request kinds of the serve-hot blend, in the
// order hotDraw picks them.
var hotKinds = []string{"sim hit", "advise candidate", "advise best partition", "advise best DeliWays"}

// hotDraw seeds request idx's generator and draws its kind: 40% cached
// /v1/sim, 20% advise on a candidate partition, 20% the best partition,
// 20% NUcache's best DeliWays. The shares are an assumption; no record
// of real traffic backs them.
func hotDraw(seed uint64, idx int64) (int, *stats.RNG) {
	rng := stats.NewRNG(seed<<32 ^ uint64(idx))
	switch r := rng.Intn(10); {
	case r < 4:
		return 0, rng
	case r < 6:
		return 1, rng
	case r < 8:
		return 2, rng
	}
	return 3, rng
}

// hotRequest is request idx of the serve-hot blend, each advise on a
// profiled mix.
func (h *hotState) hotRequest(seed uint64, idx int64) (string, []byte) {
	kind, rng := hotDraw(seed, idx)
	if kind == 0 {
		return "/v1/sim", h.warmBody[rng.Intn(len(h.warmBody))]
	}
	k := rng.Intn(len(h.profReqs))
	req := sim.AdviseRequest{ProfileRequest: h.profReqs[k], Policy: mrc.PolicyPart}
	switch kind {
	case 1:
		req.Alloc = randomAlloc(rng, h.profiles[k].Cores, h.profiles[k].Ways)
	case 2:
		req.Best = true
	default:
		req.Policy, req.Best = mrc.PolicyNUcache, true
	}
	body, _ := json.Marshal(req)
	return "/v1/advise", body
}

// randomAlloc splits ways among cores, at least one way each.
func randomAlloc(rng *stats.RNG, cores, ways int) []int {
	alloc := make([]int, cores)
	for i := range alloc {
		alloc[i] = 1
	}
	for w := cores; w < ways; w++ {
		alloc[rng.Intn(cores)]++
	}
	return alloc
}

func runServeHot(rc runConfig) (*outcome, error) {
	p := hotParamsFor(rc)
	o := newOutcome()
	var sw *switchTracer
	var tr *tracer
	if rc.trace {
		sw, tr = &switchTracer{}, &tracer{}
	}
	var h hotState
	st, setup, err := startStacks(rc, "hot", hotSetups, sw, func(st *stack) error {
		return h.warmUp(st, rc, p)
	})
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	gen := func(idx int64) (string, []byte) { return h.hotRequest(rc.seed, idx) }
	// Replies are checked as they arrive and their payloads dropped, so
	// peak_rss_mb measures the server rather than the replies' payloads: a
	// hit must equal its warm result, and every answer to one advise body
	// must equal the first, which is checked against sim.EvaluateAdvise
	// below.
	var advised sync.Map // advise body -> *adviseSeen
	hook := func(r *reply) {
		switch r.path {
		case "/v1/sim":
			r.warm = int32(h.warmIdx[string(r.data.body)])
			r.mismatch = !r.cached || !bytes.Equal(r.data.result, h.warmRaw[r.warm])
		case "/v1/advise":
			v, _ := advised.LoadOrStore(string(r.data.body), &adviseSeen{pred: r.data.pred})
			seen := v.(*adviseSeen)
			seen.n.Add(1)
			r.mismatch = !bytes.Equal(seen.pred, r.data.pred)
		}
		r.data = nil
	}
	ph := runWindow(st, rc, hotSlices, sw, tr, &next, gen, hook)
	st.close()

	o.values["setup_s"] = setup
	o.values["peak_rss_mb"] = peakRSSMB()
	windowMetrics(o, ph, 10_000, 99, func(r *reply) uint64 {
		if r.path == "/v1/sim" && r.err == nil && r.status == http.StatusOK {
			return h.warmInstr[r.warm]
		}
		return 0
	}, "serve-hot")
	o.notef("serve-hot: %d profiled mixes, %d warm results, budget %d instr/core, %d closed-loop clients; sim_minstr_per_s counts the instructions of the results served; cpu_s is per 10000 requests",
		len(h.profiles), len(h.warm), p.budget, rc.nproc)
	countFailures(o, ph.replies)
	kinds := make([]int, len(hotKinds))
	for _, r := range ph.replies {
		kind, _ := hotDraw(rc.seed, r.idx)
		kinds[kind]++
	}
	var shares []string
	for k, name := range hotKinds {
		shares = append(shares, fmt.Sprintf("%s %.0f%%", name, 100*float64(kinds[k])/float64(max(len(ph.replies), 1))))
	}
	o.notef("serve-hot traffic (assumed blend, as sent): %s, n=%d", strings.Join(shares, ", "), len(ph.replies))

	// State guards: nothing may simulate or profile in the window. Each
	// /v1/sim hit passes Scheduler.Do, which counts nucache_jobs_queued
	// before its cache lookup, so queued jobs must equal the sim requests.
	sims := int64(0)
	for _, r := range ph.replies {
		if r.path == "/v1/sim" {
			sims++
		}
	}
	if d := ph.d; d.profilesBuilt != 0 || d.jobsDone != 0 || d.cacheMisses != 0 || d.jobsQueued != sims {
		o.problemf("serve-hot window did work: profiles built %d, jobs run %d, cache misses %d, jobs queued %d for %d sim hits",
			d.profilesBuilt, d.jobsDone, d.cacheMisses, d.jobsQueued, sims)
	}

	// Output checks: the first answer to every advise body against
	// sim.EvaluateAdvise on the same profile, and the warm results
	// against direct simulation.
	for _, r := range ph.replies {
		if r.mismatch {
			o.failed++
			if o.failed <= 3 {
				o.problemf("serve-hot request %d %s: reply differs from the expected answer", r.idx, r.path)
			}
		}
	}
	advised.Range(func(k, v any) bool {
		seen := v.(*adviseSeen)
		if want := h.expectAdvise([]byte(k.(string))); want == nil || !bytes.Equal(seen.pred, want) {
			o.failed += seen.n.Load()
			o.problemf("serve-hot advise %s: prediction differs from sim.EvaluateAdvise", k)
		}
		return true
	})
	o.failed += int64(checkSimResults("serve-hot warm", h.warm, h.warmRaw, rc.seed, 2, o))

	if rc.trace {
		first := h.warm[0]
		mix := mixByName(first.Mix)
		cfg := machineFor(first, mix.Cores())
		probeRows(cfg, mix, first.Seed+1, o)
		var res sim.Result
		if err := json.Unmarshal(h.warmRaw[0], &res); err != nil {
			return nil, err
		}
		if err := probeLayers(probeInput{cfg: cfg, mix: mix, seed: first.Seed, result: &res,
			requests: h.warmBody, dir: rc.workdir, nproc: rc.nproc}, o); err != nil {
			return nil, err
		}
		if err := traceServe(rc, "serve-hot", tr, ph, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// adviseSeen is the first prediction served for one advise body and the
// number of replies to it.
type adviseSeen struct {
	pred []byte
	n    atomic.Int64
}

// expectAdvise answers an advise body with sim.EvaluateAdvise on the
// profile set-up fetched, encoded as the server encodes it.
func (h *hotState) expectAdvise(body []byte) []byte {
	var req sim.AdviseRequest
	if json.Unmarshal(body, &req) != nil {
		return nil
	}
	for k, pr := range h.profReqs {
		if pr.Mix != req.Mix {
			continue
		}
		pred, err := sim.EvaluateAdvise(h.profiles[k], req)
		if err != nil {
			return nil
		}
		b, _ := json.Marshal(pred)
		return b
	}
	return nil
}
