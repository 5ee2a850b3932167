package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/journal"
	"nucache/internal/memory"
	"nucache/internal/mrc"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

// probeInput is one workload's own inputs for the layer probes: a mix on
// a machine shape, the seed its streams derive from, and the payloads it
// encodes, decodes, hashes and journals.
type probeInput struct {
	cfg  cpu.Config
	mix  workload.Mix
	seed uint64
	// result is the workload's result payload (a sim.Result for the
	// server workloads, a grid cell's metrics for grid).
	result any
	// requests are request bodies the workload sends (JSON).
	requests [][]byte
	dir      string
	nproc    int
}

// llcAccess is one captured LLC-bound access.
type llcAccess struct {
	addr, pc uint64
	kind     trace.Kind
}

// captureVisitor records one core's LLC stream during the first walk.
type captureVisitor struct {
	out    []llcAccess
	events int
}

func (v *captureVisitor) Access(addr, pc uint64, kind trace.Kind, demand bool) {
	if demand {
		v.events++
	}
	v.out = append(v.out, llcAccess{addr, pc, kind})
}

func (v *captureVisitor) Crossing(cr trace.Crossing) bool { return inWindow(cr) }

// nopVisitor does nothing, so the second walk times decoding alone.
type nopVisitor struct{}

func (nopVisitor) Access(uint64, uint64, trace.Kind, bool) {}
func (nopVisitor) Crossing(cr trace.Crossing) bool         { return inWindow(cr) }

// inWindow stops a walk at the end of the measurement window, as the
// MRC profiler does: a core's stream never ends by itself.
func inWindow(cr trace.Crossing) bool {
	return cr.Kind != trace.CrossRecord && cr.Kind != trace.CrossExhaust
}

// repeatNS runs fn at least minReps times and until minNS has elapsed,
// and returns the median nanoseconds of one call.
func repeatNS(minReps int, minNS int64, fn func()) float64 {
	var times []float64
	start := nowNS()
	for len(times) < minReps || nowNS()-start < minNS {
		t0 := nowNS()
		fn()
		times = append(times, float64(nowNS()-t0))
		if len(times) >= 10_000 {
			break
		}
	}
	return median(times)
}

// buildPolicy builds one of the grid policies for the probe machine.
func buildPolicy(name string, cfg cpu.Config) cache.Policy {
	p, err := sim.BuildPolicy(name, cfg.Cores, cfg.LLC.Ways, 6)
	if err != nil {
		panic(err) // names come from accessPolicies
	}
	return p
}

// probeRows times one policy-grid row and one alone run on a serving
// workload's own mix and machine shape.
func probeRows(cfg cpu.Config, m workload.Mix, seed uint64, o *outcome) {
	newPols := make([]func() cache.Policy, len(accessPolicies))
	for i, name := range accessPolicies {
		name := name
		newPols[i] = func() cache.Policy { return buildPolicy(name, cfg) }
	}
	cpu.ResetTapes()
	t0 := nowNS()
	sim.RunMachineGrid(cfg, newPols, m, seed, false, false, nil)
	o.values["experiments.row_s"] = float64(nowNS()-t0) / 1e9
	alone1 := cfg
	alone1.Cores = 1
	t0 = nowNS()
	sim.RunMachineOneShot(alone1, func() cache.Policy { return policy.NewLRU() },
		workload.Mix{Name: "alone/" + m.Members[0], Members: m.Members[:1]}, seed, false)
	o.values["experiments.alone_s"] = float64(nowNS()-t0) / 1e9
}

// probeLayers times the public entry points of each module on the
// workload's own inputs and fills the per-layer metrics.
func probeLayers(in probeInput, o *outcome) error {
	v := o.values
	cfg := in.cfg

	// workload: generator throughput.
	b := workload.MustByName(in.mix.Members[0])
	const nextCalls = 200_000
	v["workload.next_ns"] = repeatNS(3, 0, func() {
		st := b.Stream(in.seed)
		for i := 0; i < nextCalls; i++ {
			st.Next()
		}
	}) / nextCalls

	// cpu: record every member's tape (NewTape + first walk, which
	// records on demand and captures the LLC stream), then decode it
	// again with a second walk.
	streams := in.mix.Streams(in.seed)
	tapes := make([]*cpu.Tape, len(streams))
	perCore := make([][]llcAccess, len(streams))
	var firstNS, secondNS int64
	events := 0
	bytesBefore := cpu.TapeBytes()
	for i, st := range streams {
		t0 := nowNS()
		tapes[i] = cpu.NewTape(cfg, st)
		cv := &captureVisitor{}
		if err := cpu.WalkTape(cfg, i, tapes[i], cv); err != nil {
			return fmt.Errorf("record walk: %w", err)
		}
		firstNS += nowNS() - t0
		perCore[i], events = cv.out, events+cv.events
	}
	tapeBytes := cpu.TapeBytes() - bytesBefore
	decodeNS := repeatNS(3, 0, func() {
		for i, t := range tapes {
			if err := cpu.WalkTape(cfg, i, t, nopVisitor{}); err != nil {
				panic(err) // the same tapes walked cleanly above
			}
		}
	})
	secondNS = int64(decodeNS)
	ev := float64(max(events, 1))
	v["cpu.record_ns_per_event"] = float64(firstNS-secondNS) / ev
	v["cpu.tape_bytes_per_event"] = float64(tapeBytes) / ev
	v["cpu.decode_ns_per_event"] = float64(secondNS) / ev

	// cache: each grid policy over the captured stream, cores
	// interleaved round-robin.
	var reqs []cache.Request
	for k := 0; ; k++ {
		more := false
		for c, s := range perCore {
			if k < len(s) {
				more = true
				reqs = append(reqs, cache.Request{Addr: s[k].addr, PC: s[k].pc, Core: c, Kind: s[k].kind})
			}
		}
		if !more {
			break
		}
	}
	llcCfg := cfg.LLC
	llcCfg.Name, llcCfg.Cores = "LLC", cfg.Cores
	for _, name := range accessPolicies {
		var c *cache.Cache
		ns := repeatNS(3, 50e6, func() {
			c = cache.New(llcCfg, buildPolicy(name, cfg))
			for i := range reqs {
				r := reqs[i]
				c.Access(&r)
			}
		}) / float64(max(len(reqs), 1))
		v["cache.access_ns."+name] = ns
		v["cache.miss_ratio."+name] = float64(c.Stats.Misses) / float64(max(c.Stats.Accesses, 1))
	}
	var misses []uint64
	lru := cache.New(llcCfg, buildPolicy("LRU", cfg))
	for i := range reqs {
		r := reqs[i]
		if !lru.Access(&r).Hit {
			misses = append(misses, r.Addr)
		}
	}

	// memory: the DRAM model over the LRU miss stream.
	v["memory.dram_access_ns"] = repeatNS(3, 20e6, func() {
		d := memory.New(memory.DefaultConfig())
		for _, a := range misses {
			d.Access(a)
		}
	}) / float64(max(len(misses), 1))

	// cpu replay: one single-policy replay, the one-pass multi-lane walk,
	// the same lanes as separate replays, and the walk on nproc workers.
	// An untimed walk first extends the tapes past the window, where
	// replay keeps every core running until the last one freezes. Replay
	// costs are per LLC access the replay itself made, which counts that
	// extension; the captured stream above stops at the window.
	runSingle := func(name string) (float64, uint64) {
		var rs *cpu.ReplaySystem
		ns := repeatNS(3, 0, func() {
			rs = cpu.NewReplaySystem(cfg, buildPolicy(name, cfg), tapes)
			if _, err := rs.Run(); err != nil {
				panic(err)
			}
		})
		return ns, rs.LLC().Stats.Accesses
	}
	runMulti := func(workers int) (float64, []uint64) {
		var ms *cpu.MultiReplaySystem
		ns := repeatNS(3, 0, func() {
			pols := make([]cache.Policy, len(accessPolicies))
			for i, name := range accessPolicies {
				pols[i] = buildPolicy(name, cfg)
			}
			ms = cpu.NewMultiReplaySystem(cfg, pols, tapes)
			var err error
			if workers > 1 {
				_, err = ms.RunParallel(workers)
			} else {
				_, err = ms.Run()
			}
			if err != nil {
				panic(err)
			}
		})
		lanes := make([]uint64, ms.Lanes())
		for i := range lanes {
			lanes[i] = ms.Lane(i).LLC().Stats.Accesses
		}
		return ns, lanes
	}
	runMulti(1)
	singles := 0.0
	for _, name := range accessPolicies {
		ns, accesses := runSingle(name)
		if name == "LRU" {
			v["cpu.replay_ns_per_event"] = ns / float64(max(accesses, 1))
		}
		singles += ns
	}
	multi, laneAccesses := runMulti(1)
	var laneSum, accessNS float64
	for i, n := range laneAccesses {
		laneSum += float64(n)
		accessNS += float64(n) * v["cache.access_ns."+accessPolicies[i]]
	}
	v["cpu.multireplay_ns_per_lane_event"] = multi / max(laneSum, 1)
	v["cpu.onepass_ratio"] = singles / multi
	parallel, _ := runMulti(in.nproc)
	v["cpu.parallel_ratio"] = multi / parallel
	// The share of the one-pass walk that per-lane Cache.Access takes:
	// each lane's accesses in that walk at its policy's isolated cost.
	// The isolated cost is timed with one cache's state warm in the host
	// caches, so it reads low against lanes that evict one another.
	v["cache.access_share"] = accessNS / multi

	// mrc: build the profile from the tapes, then the model queries.
	var prof *mrc.Profile
	buildNS := repeatNS(1, 0, func() {
		var err error
		if prof, err = mrc.BuildFromTapes(cfg, in.mix.Name, in.mix.Members, in.seed, tapes); err != nil {
			panic(err)
		}
	})
	v["mrc.build_ms"] = buildNS / 1e6
	var pred *mrc.Prediction
	v["mrc.predict_us"] = repeatNS(100, 5e6, func() {
		pred, _ = mrc.Predict(prof, mrc.WhatIf{Policy: mrc.PolicyPart})
	}) / 1e3
	v["mrc.best_partition_us"] = repeatNS(20, 5e6, func() { _, _ = mrc.BestPartition(prof) }) / 1e3
	v["mrc.best_deliways_us"] = repeatNS(20, 5e6, func() { _, _ = mrc.BestDeliWays(prof) }) / 1e3

	// json: the workload's own payloads.
	resultJSON, err := json.Marshal(in.result)
	if err != nil {
		return err
	}
	v["json.encode_us.result"] = repeatNS(100, 5e6, func() { _, _ = json.Marshal(in.result) }) / 1e3
	v["json.encode_us.prediction"] = repeatNS(100, 5e6, func() { _, _ = json.Marshal(pred) }) / 1e3
	v["json.decode_us.request"] = repeatNS(100, 5e6, func() {
		for _, body := range in.requests {
			var r sim.Request
			_ = json.Unmarshal(body, &r)
		}
	}) / 1e3 / float64(max(len(in.requests), 1))

	// sim: Request.Key, and result-cache Put (memory + disk) and Get.
	simReqs := make([]sim.Request, 0, len(in.requests))
	for _, body := range in.requests {
		var r sim.Request
		if json.Unmarshal(body, &r) == nil {
			simReqs = append(simReqs, r.Normalize())
		}
	}
	v["sim.request_key_us"] = repeatNS(100, 5e6, func() {
		for _, r := range simReqs {
			_ = r.Key()
		}
	}) / 1e3 / float64(max(len(simReqs), 1))
	cdir := filepath.Join(in.dir, "probe-cache")
	rc := sim.NewCache(1024, cdir)
	const puts = 64
	var putNS, getNS []float64
	for i := 0; i < puts; i++ {
		key := fmt.Sprintf("%064x", i)
		t0 := nowNS()
		if err := rc.Put(key, json.RawMessage(resultJSON)); err != nil {
			return err
		}
		putNS = append(putNS, float64(nowNS()-t0))
	}
	for i := 0; i < puts*4; i++ {
		var into json.RawMessage
		t0 := nowNS()
		if !rc.Get(fmt.Sprintf("%064x", i%puts), &into) {
			return fmt.Errorf("result cache lost a probe entry")
		}
		getNS = append(getNS, float64(nowNS()-t0))
	}
	v["sim.cache_put_us"] = median(putNS) / 1e3
	v["sim.cache_get_us"] = median(getNS) / 1e3
	_ = os.RemoveAll(cdir)

	// journal: append the workload's result payload (each append syncs).
	jpath := filepath.Join(in.dir, "probe.journal")
	j, err := journal.Create(jpath)
	if err != nil {
		return err
	}
	var appendUS []float64
	for i := 0; i < 200; i++ {
		t0 := nowNS()
		if err := j.Append(resultJSON); err != nil {
			j.Close()
			return err
		}
		appendUS = append(appendUS, float64(nowNS()-t0)/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	_ = os.Remove(jpath)
	ts := tail(appendUS)
	v["journal.append_us.p50"] = median(appendUS)
	v["journal.append_us.tail"] = ts.value
	o.notef("layers: probe mix %s (%d cores, seed %d): %d tape events, %d LLC accesses; journal tail %s of n=%d",
		in.mix.Name, cfg.Cores, in.seed, events, len(reqs), ts.label, ts.n)
	return nil
}
