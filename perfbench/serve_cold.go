package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"

	"nucache/internal/cpu"
	"nucache/internal/sim"
	"nucache/internal/stats"
	"nucache/internal/workload"
)

// The serve-cold workload is the one-off /v1/sim request a user sends
// while exploring: nproc closed-loop clients POST requests whose content
// address never repeats, so every request simulates. Requests come in
// groups that share a (mix, seed, machine shape) under a few policies:
// the first of a group records the members' tapes, the rest replay them.

const (
	serveSetups     = 51
	coldPerGroup    = 5
	coldSampleCheck = 3
)

type coldParams struct{ budget uint64 }

func coldParamsFor(rc runConfig) coldParams {
	if rc.short {
		return coldParams{budget: 20_000}
	}
	return coldParams{budget: 100_000}
}

// l2Hangs lists the benchmarks whose simulation never finishes once a
// private L2 is added (their working sets fit in it); serve-cold keeps
// l2 off for mixes that contain one, so that no request fails.
var l2Hangs = map[string]bool{"hmmer-like": true, "twolf-like": true, "vpr-like": true}

// coldShapes is the cycle of machine widths serve-cold groups walk
// through (40% 2-core, 40% 4-core, 20% 8-core), so every run draws the
// same blend whatever its seed.
var coldShapes = []int{2, 4, 8, 2, 4}

// coldRequest is request idx of the serve-cold stream for seed. Group
// g = idx/coldPerGroup takes the next width from coldShapes and the next
// standard mix of that width, a fresh request seed, dram on every fourth
// group and l2 on every fourth other group (where l2Hangs allows); the
// group's requests take the standard policies in a drawn order. The mix
// sequence is the same for every seed, so seeds differ in the simulated
// streams and not in which mixes a window reaches.
func coldRequest(seed uint64, idx int64, budget uint64) sim.Request {
	g := uint64(idx) / coldPerGroup
	n := uint64(len(coldShapes))
	width := coldShapes[g%n]
	// k counts the earlier groups of the same width.
	k := uint64(0)
	for pos, w := range coldShapes {
		if w == width {
			k += g / n
			if uint64(pos) < g%n {
				k++
			}
		}
	}
	mixes := workload.MixesFor(width)
	mix := mixes[k%uint64(len(mixes))]
	rng := stats.NewRNG(seed<<32 ^ g)
	dram := g%4 == 1
	l2 := g%4 == 3
	for _, b := range mix.Members {
		l2 = l2 && !l2Hangs[b]
	}
	pols := append([]string(nil), accessPolicies...)
	for i := len(pols) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pols[i], pols[j] = pols[j], pols[i]
	}
	return sim.Request{
		Mix: mix.Name, Policy: pols[uint64(idx)%coldPerGroup],
		Budget: budget, Seed: seed*1_000_000 + g + 1, DRAM: dram, L2: l2,
	}.Normalize()
}

// startStacks starts the serving stack n times, each from an empty
// cache directory and tape memo, and keeps the last one; it returns the
// median set-up time. ready, when non-nil, finishes each set-up (it
// runs inside the timed set-up).
func startStacks(rc runConfig, name string, n int, sw *switchTracer, ready func(*stack) error) (*stack, float64, error) {
	var setups []float64
	var st *stack
	for k := 0; k < n; k++ {
		if st != nil {
			st.close()
		}
		dir := filepath.Join(rc.workdir, fmt.Sprintf("%s-%d", name, k))
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		cpu.ResetTapes()
		t0 := nowNS()
		var err error
		if st, err = startStack(dir, rc.nproc, sw); err != nil {
			return nil, 0, err
		}
		if ready != nil {
			if err := ready(st); err != nil {
				st.close()
				return nil, 0, err
			}
		}
		setups = append(setups, float64(nowNS()-t0)/1e9)
	}
	return st, median(setups), nil
}

func runServeCold(rc runConfig) (*outcome, error) {
	p := coldParamsFor(rc)
	o := newOutcome()
	var sw *switchTracer
	var tr *tracer
	if rc.trace {
		sw, tr = &switchTracer{}, &tracer{}
	}
	// Set-up is a serving process's start until /healthz answers; the
	// stack the window uses is started once more in this process.
	setup, err := processSetups(rc, "serve", serveSetups)
	if err != nil {
		return nil, err
	}
	st, _, err := startStacks(rc, "cold", 1, sw, nil)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	gen := func(idx int64) (string, []byte) {
		body, _ := json.Marshal(coldRequest(rc.seed, idx, p.budget))
		return "/v1/sim", body
	}
	ph := runWindow(st, rc, 1, sw, tr, &next, gen, nil)
	st.close()

	o.values["setup_s"] = setup
	o.values["peak_rss_mb"] = peakRSSMB()
	// One slice: a window holds a few hundred requests whose costs
	// differ tenfold, too few to split. The tail is p90, which a few
	// hundred requests support.
	windowMetrics(o, ph, 100, 90, nil, "serve-cold")
	o.notef("serve-cold: budget %d instr/core, %d closed-loop clients, groups of %d policies; cpu_s is per 100 requests",
		p.budget, rc.nproc, coldPerGroup)
	countFailures(o, ph.replies)
	coldShares(o, rc.seed, p.budget, ph.replies)
	if ph.d.traceFallbacks > 0 {
		msg := fmt.Sprintf("WARNING: tape budget reached: %d simulations fell back from replay to direct simulation (trace_bytes %d)",
			ph.d.traceFallbacks, ph.d.tapeBytes)
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
		o.notef("%s", msg)
	}

	// State guard and output checks, outside the timed window.
	var reqs []sim.Request
	var raws [][]byte
	for _, r := range ph.replies {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		if r.cached {
			o.problemf("serve-cold request %d was served from cache", r.idx)
			o.failed++
		}
		reqs = append(reqs, coldRequest(rc.seed, r.idx, p.budget))
		raws = append(raws, r.data.result)
	}
	o.failed += int64(checkSimResults("serve-cold", reqs, raws, rc.seed, coldSampleCheck, o))

	if rc.trace && len(reqs) == 0 {
		return nil, fmt.Errorf("serve-cold: no request succeeded")
	}
	if rc.trace {
		first := reqs[0]
		mix := mixByName(first.Mix)
		cfg := machineFor(first, mix.Cores())
		probeRows(cfg, mix, first.Seed+1, o)
		var res sim.Result
		if err := json.Unmarshal(raws[0], &res); err != nil {
			return nil, err
		}
		var bodies [][]byte
		for _, r := range ph.replies[:min(len(ph.replies), 32)] {
			bodies = append(bodies, r.data.body)
		}
		if err := probeLayers(probeInput{cfg: cfg, mix: mix, seed: first.Seed, result: &res,
			requests: bodies, dir: rc.workdir, nproc: rc.nproc}, o); err != nil {
			return nil, err
		}
		o.notef("trace: http.overhead_ms.* are 0: serve-cold sends no cache hits and no advise requests")
		if err := traceServe(rc, "serve-cold", tr, ph, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// coldShares prints the share of the window's requests with each
// property the blend sets, as sent.
func coldShares(o *outcome, seed, budget uint64, replies []reply) {
	width := map[int]int{}
	dram, l2 := 0, 0
	for _, r := range replies {
		req := coldRequest(seed, r.idx, budget)
		width[mixByName(req.Mix).Cores()]++
		if req.DRAM {
			dram++
		}
		if req.L2 {
			l2++
		}
	}
	n := float64(max(len(replies), 1))
	o.notef("serve-cold traffic (assumed blend, as sent): 2/4/8 cores %.0f%%/%.0f%%/%.0f%%, dram %.0f%%, l2 %.0f%%, all uncached, n=%d",
		100*float64(width[2])/n, 100*float64(width[4])/n, 100*float64(width[8])/n, 100*float64(dram)/n, 100*float64(l2)/n, len(replies))
}
