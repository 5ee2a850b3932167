package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"

	"nucache/internal/cache"
	"nucache/internal/experiments"
	"nucache/internal/metrics"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/stats"
	"nucache/internal/workload"
)

// defaultSeed is the seed whose outputs testdata/digests.json pins.
const defaultSeed = 1

//go:embed testdata/digests.json
var digestsJSON []byte

// digests maps an output's identity — "grid/<round seed>" or a
// /v1/sim content address — to the SHA-256 of the output computed by
// direct simulation with replay disabled.
var digests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: testdata/digests.json: %v", err))
	}
	return m
}()

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// gridDigest pins one grid's every cell.
func gridDigest(res *experiments.MulticoreResult) string {
	b, err := json.Marshal(res.WS)
	if err != nil {
		panic(err) // plain floats and maps
	}
	return digest(b)
}

// gridDigestKey names a grid's stored digest.
func gridDigestKey(p gridParams, roundSeed uint64) string {
	return fmt.Sprintf("grid/b%d/m%d/%d", p.budget, p.mixLimit, roundSeed)
}

// checkGridRound compares a grid against direct simulation: the whole
// grid against its stored digest where one exists (the default seed's
// rounds), and two sampled cells recomputed with replay disabled. It
// returns how many digests it compared.
func checkGridRound(r gridRound, p gridParams, o *outcome) int {
	compared := 0
	if want, ok := digests[gridDigestKey(p, r.seed)]; ok {
		compared++
		if got := gridDigest(r.res); got != want {
			o.problemf("grid round seed %d: table digest %s, direct simulation gives %s", r.seed, got[:12], want[:12])
			o.failed += int64(r.cellsPerRun)
		}
	}
	rng := stats.NewRNG(r.seed)
	for k := 0; k < 2; k++ {
		i := rng.Intn(len(r.res.Mixes))
		spec := experiments.StandardPolicies()[rng.Intn(len(r.res.Policies))]
		got := r.res.WS[i][spec.Name]
		want := directCell(p, r.seed, r.res.Mixes[i], spec)
		if !sameFloats(got.IPC, want.IPC) || got.WS != want.WS || got.MPKI != want.MPKI {
			o.problemf("grid round seed %d: %s under %s: replayed WS %v IPC %v, direct WS %v IPC %v",
				r.seed, r.res.Mixes[i].Name, spec.Name, got.WS, got.IPC, want.WS, want.IPC)
			o.failed++
		}
	}
	return compared
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// directCell scores one grid cell from direct simulation, the mix and
// every member's alone run both with replay disabled.
func directCell(p gridParams, seed uint64, m workload.Mix, spec experiments.PolicySpec) experiments.MixMetrics {
	cfg := p.machine()
	res, _, _ := sim.RunMachine(cfg, func() cache.Policy { return spec.New(cfg.Cores, cfg.LLC.Ways) }, m, seed, true)
	alone1 := cfg
	alone1.Cores = 1
	shared := make([]float64, len(res))
	alone := make([]float64, len(res))
	var misses, instr uint64
	for i, r := range res {
		shared[i] = r.IPC()
		a, _, _ := sim.RunMachine(alone1, func() cache.Policy { return policy.NewLRU() },
			workload.Mix{Name: "alone/" + m.Members[i], Members: []string{m.Members[i]}}, seed, true)
		alone[i] = a[0].IPC()
		misses += r.LLCMisses
		instr += r.Instructions
	}
	mm := experiments.MixMetrics{IPC: shared, WS: metrics.WeightedSpeedup(shared, alone)}
	if instr > 0 {
		mm.MPKI = 1000 * float64(misses) / float64(instr)
	}
	return mm
}

// directResult simulates req with replay disabled and returns the result
// as the server encodes it.
func directResult(req sim.Request) ([]byte, error) {
	sim.SetReplayDisabled(true)
	defer sim.SetReplayDisabled(false)
	res, err := sim.Execute(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// checkSimResults compares served /v1/sim results with direct
// simulation: every result with a stored digest (the default seed's
// requests), plus sample results recomputed with replay disabled. It
// returns the number of mismatching results.
func checkSimResults(label string, reqs []sim.Request, raws [][]byte, seed uint64, sample int, o *outcome) int {
	bad, compared := 0, 0
	for i, req := range reqs {
		if want, ok := digests[req.Key()]; ok {
			compared++
			if got := digest(raws[i]); got != want {
				bad++
				o.problemf("%s: result %s differs from its direct-simulation digest", label, req.Key()[:12])
			}
		}
	}
	rng := stats.NewRNG(seed ^ 0x5eed)
	for k := 0; k < sample && len(reqs) > 0; k++ {
		i := rng.Intn(len(reqs))
		want, err := directResult(reqs[i])
		if err != nil {
			bad++
			o.problemf("%s: direct simulation of %s: %v", label, reqs[i].Key()[:12], err)
			continue
		}
		if string(want) != string(raws[i]) {
			bad++
			o.problemf("%s: result %s (%s under %s) differs from direct simulation", label, reqs[i].Key()[:12], reqs[i].Mix, reqs[i].Policy)
		}
	}
	o.notef("checks: %s: %d of %d results compared with stored direct-simulation digests, %d recomputed with replay disabled",
		label, compared, len(reqs), min(sample, len(reqs)))
	return bad
}

// digestGridRounds and digestColdRequests size the stored digest set:
// more grid rounds and requests than a default run reaches.
const (
	digestGridRounds   = 24
	digestColdRequests = 600
)

// writeDigests recomputes testdata/digests.json for the default seed
// and default parameters by direct simulation.
func writeDigests(path string) error {
	sim.SetReplayDisabled(true)
	defer sim.SetReplayDisabled(false)
	rc := runConfig{seed: defaultSeed}
	out := map[string]string{}
	var mu sync.Mutex
	put := func(k, v string) {
		mu.Lock()
		out[k] = v
		mu.Unlock()
	}
	p := gridParamsFor(rc)
	for r := 0; r < digestGridRounds; r++ {
		s := roundSeed(defaultSeed, r)
		res := experiments.MulticoreComparison(gridCores, experiments.Options{
			Budget: p.budget, MixLimit: p.mixLimit, Seed: s, Parallel: runtime.NumCPU(), DisableReplay: true,
		})
		put(gridDigestKey(p, s), gridDigest(res))
		fmt.Fprintf(os.Stderr, "grid round %d digested\n", r)
	}
	var reqs []sim.Request
	for i := int64(0); i < digestColdRequests; i++ {
		reqs = append(reqs, coldRequest(defaultSeed, i, coldParamsFor(rc).budget))
	}
	reqs = append(reqs, hotWarmRequests(hotParamsFor(rc))...)
	work := make(chan sim.Request)
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				res, err := sim.Execute(context.Background(), req)
				var b []byte
				if err == nil {
					b, err = json.Marshal(res)
				}
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					continue
				}
				put(req.Key(), digest(b))
			}
		}()
	}
	for _, req := range reqs {
		work <- req
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d digests written\n", len(out))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
