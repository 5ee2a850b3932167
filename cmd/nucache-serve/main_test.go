package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"
)

// beBinary, when set, makes the test binary act as the real nucache-serve
// binary (see cmd/nucache-sim for the pattern).
const beBinary = "NUCACHE_SERVE_BE_BINARY"

func TestMain(m *testing.M) {
	if os.Getenv(beBinary) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startServer launches the binary on an ephemeral port and returns its
// base URL once the listen line appears on stderr.
func startServer(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), beBinary+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	lines := bufio.NewScanner(stderr)
	addrc := make(chan string, 1)
	go func() {
		defer io.Copy(io.Discard, stderr) // keep draining after the match
		for lines.Scan() {
			line := lines.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				addrc <- fields[0]
				return
			}
		}
		close(addrc)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			t.Fatal("server exited before announcing its address")
		}
		return cmd, "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for listen line")
	}
	panic("unreachable")
}

func TestHealthzRoundTrip(t *testing.T) {
	cmd, base := startServer(t)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if health.Status != "ok" || health.Workers <= 0 {
		t.Fatalf("healthz = %+v, want status ok and workers > 0", health)
	}

	// Graceful shutdown: SIGINT must drain and exit 0.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server did not exit cleanly on SIGINT: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit within drain timeout")
	}
}

// getReadyz fetches /readyz as a raw field map, so tests can check which
// fields are present as well as their values.
func getReadyz(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status = %d, want 200", resp.StatusCode)
	}
	var r map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	return r
}

// TestReadyzStandalone: an idle server with a disk cache tier is ready
// and reports exactly its pool, queue and disk state — no field beyond
// those a single-node server has.
func TestReadyzStandalone(t *testing.T) {
	_, base := startServer(t, "-workers", "2", "-queue", "7", "-cachedir", t.TempDir())
	want := map[string]any{
		"status":      "ok",
		"workers":     2.0,
		"queue_depth": 0.0,
		"queue_cap":   7.0,
		"cache_disk":  "ok",
	}
	if got := getReadyz(t, base); !reflect.DeepEqual(got, want) {
		t.Fatalf("readyz = %v, want exactly %v", got, want)
	}
}

// TestWorkerRequiresJoin: there is no worker role any more, so -worker
// is a usage error with or without -join, and the binary says which
// flag it does not know.
func TestWorkerRequiresJoin(t *testing.T) {
	for _, args := range [][]string{{"-worker"}, {"-worker", "-join", "http://127.0.0.1:1"}} {
		cmd, stderr := runServeRaw(t, args...)
		err := cmd.Wait()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: exit = %v, want usage error (code 2)", args, err)
		}
		if !strings.Contains(stderr(), "flag provided but not defined: -worker") {
			t.Errorf("%v: stderr does not name the unknown flag: %q", args, stderr())
		}
	}
}

// runServeRaw starts the binary without waiting for a listen line, for
// flag-validation tests that expect an immediate exit.
func runServeRaw(t *testing.T, args ...string) (cmd *exec.Cmd, stderr func() string) {
	t.Helper()
	c := exec.Command(os.Args[0], args...)
	c.Env = append(os.Environ(), beBinary+"=1")
	var errb strings.Builder
	c.Stderr = &errb
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Process.Kill(); c.Wait() })
	return c, func() string { return errb.String() }
}

func TestSimEndpoint(t *testing.T) {
	_, base := startServer(t)
	body := strings.NewReader(`{"bench":"ammp-like","budget":100000}`)
	resp, err := http.Post(base+"/v1/sim", "application/json", body)
	if err != nil {
		t.Fatalf("POST /v1/sim: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim status = %d, body %s", resp.StatusCode, raw)
	}
	var env struct {
		Key    string `json:"key"`
		Result struct {
			Policy string `json:"policy"`
			LLC    struct {
				Accesses uint64 `json:"accesses"`
			} `json:"llc"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("sim response is not JSON: %v\n%s", err, raw)
	}
	if len(env.Key) != 64 || env.Result.Policy != "NUcache" || env.Result.LLC.Accesses == 0 {
		t.Fatalf("unexpected sim response: %s", raw)
	}

	// The run above went through the record/replay fast path: the tape
	// counters must be live on /debug/vars (operators watch these to
	// confirm replay is on and that the memo holds its tapes).
	dv, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer dv.Body.Close()
	var vars struct {
		Recorded int64 `json:"nucache_traces_recorded"`
		Replayed int64 `json:"nucache_traces_replayed"`
		Bytes    int64 `json:"nucache_trace_bytes"`
		// Published from process start; one sim is far below the
		// memo's cap, so nothing is evicted.
		Evicted *int64 `json:"nucache_traces_evicted"`
		// Integrity counters are pointers: they must be *published* (nil
		// means the var is missing entirely), but a healthy server keeps
		// them at zero.
		ChecksumFails   *int64 `json:"nucache_cache_checksum_fails"`
		TapeChecksums   *int64 `json:"nucache_tape_checksum_fails"`
		FailpointsFired *int64 `json:"nucache_failpoints_fired"`
		// Multi-lane grid counters (sim.RunMachineGrid): published from
		// process start; a single-policy /v1/sim leaves them at zero.
		MultiRuns  *int64 `json:"nucache_multireplay_runs"`
		MultiLanes *int64 `json:"nucache_multireplay_lanes"`
		// Parallel lanes ride inside the multi path, so a single-policy
		// /v1/sim leaves these at zero too.
		ParallelRuns *int64 `json:"nucache_multireplay_parallel_runs"`
		LaneWorkers  *int64 `json:"nucache_multireplay_lane_workers"`
		// The fallback total and its split by cause, every cause key
		// published from process start.
		Fallbacks        *int64           `json:"nucache_trace_fallbacks"`
		FallbacksByCause map[string]int64 `json:"nucache_trace_fallbacks_by_cause"`
	}
	if err := json.NewDecoder(dv.Body).Decode(&vars); err != nil {
		t.Fatalf("expvars: %v", err)
	}
	if vars.Recorded < 1 || vars.Replayed < 1 || vars.Bytes <= 0 {
		t.Fatalf("trace expvars not live after a sim: recorded=%d replayed=%d bytes=%d",
			vars.Recorded, vars.Replayed, vars.Bytes)
	}
	if vars.Evicted == nil || *vars.Evicted != 0 {
		t.Fatalf("nucache_traces_evicted = %v after one sim; want a published 0", vars.Evicted)
	}
	if vars.ChecksumFails == nil || vars.TapeChecksums == nil || vars.FailpointsFired == nil {
		t.Fatalf("integrity expvars missing from /debug/vars: cache=%v tape=%v failpoints=%v",
			vars.ChecksumFails, vars.TapeChecksums, vars.FailpointsFired)
	}
	for _, cause := range []string{"quiet_core", "corrupt", "untaggable", "unaligned", "failpoint", "other"} {
		if _, ok := vars.FallbacksByCause[cause]; !ok || vars.Fallbacks == nil {
			t.Fatalf("nucache_trace_fallbacks_by_cause = %v (total %v); want a published %s key",
				vars.FallbacksByCause, vars.Fallbacks, cause)
		}
	}
	if vars.MultiRuns == nil || vars.MultiLanes == nil {
		t.Fatalf("multireplay expvars missing from /debug/vars: runs=%v lanes=%v",
			vars.MultiRuns, vars.MultiLanes)
	}
	if vars.ParallelRuns == nil || vars.LaneWorkers == nil {
		t.Fatalf("parallel-lane expvars missing from /debug/vars: runs=%v workers=%v",
			vars.ParallelRuns, vars.LaneWorkers)
	}
	if *vars.ParallelRuns != 0 || *vars.LaneWorkers != 0 {
		t.Fatalf("parallel-lane counters moved on single-policy sims: runs=%d workers=%d",
			*vars.ParallelRuns, *vars.LaneWorkers)
	}
	if *vars.ChecksumFails != 0 || *vars.TapeChecksums != 0 || *vars.FailpointsFired != 0 {
		t.Fatalf("integrity counters moved on a healthy server: cache=%d tape=%d failpoints=%d",
			*vars.ChecksumFails, *vars.TapeChecksums, *vars.FailpointsFired)
	}
}

// serveVars is the expvar slice the advisor tests watch.
type serveVars struct {
	JobsQueued       int64    `json:"nucache_jobs_queued"`
	ProfilesBuilt    int64    `json:"nucache_mrc_profiles_built"`
	ProfileCacheHits int64    `json:"nucache_mrc_profile_cache_hits"`
	AdviseRequests   int64    `json:"nucache_advise_requests"`
	VerifyMaxErr     *float64 `json:"nucache_advise_verify_max_err"`
}

func getServeVars(t *testing.T, base string) serveVars {
	t.Helper()
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	var v serveVars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("expvars: %v", err)
	}
	return v
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// TestProfileAdviseFlow drives the capacity-advisor API end to end:
// profile once, answer what-ifs from the cached artifact with zero jobs
// queued, then verify one answer against the full simulation.
func TestProfileAdviseFlow(t *testing.T) {
	_, base := startServer(t)
	const spec = `"mix":"mix2-01","budget":100000`

	// 1. Profiling pass: builds and caches the artifact.
	code, raw := postJSON(t, base+"/v1/profile", `{`+spec+`}`)
	if code != http.StatusOK {
		t.Fatalf("profile status = %d, body %s", code, raw)
	}
	var prof struct {
		Key     string `json:"key"`
		Profile struct {
			Cores int `json:"cores"`
			Ways  int `json:"ways"`
		} `json:"profile"`
	}
	if err := json.Unmarshal(raw, &prof); err != nil {
		t.Fatalf("profile response: %v\n%s", err, raw)
	}
	if len(prof.Key) != 64 || prof.Profile.Cores != 2 || prof.Profile.Ways == 0 {
		t.Fatalf("unexpected profile response: %s", raw)
	}
	v1 := getServeVars(t, base)
	if v1.ProfilesBuilt != 1 {
		t.Fatalf("mrc_profiles_built = %d after one profiling pass", v1.ProfilesBuilt)
	}

	// 2. A what-if against the cached profile answers WITHOUT queueing
	// any job: the advisor's whole point is no simulation on this path.
	code, raw = postJSON(t, base+"/v1/advise", `{`+spec+`,"policy":"part","best":true}`)
	if code != http.StatusOK {
		t.Fatalf("advise status = %d, body %s", code, raw)
	}
	var adv struct {
		ProfileKey    string `json:"profile_key"`
		ProfileCached bool   `json:"profile_cached"`
		EvalNS        int64  `json:"eval_ns"`
		Prediction    struct {
			HitsExact bool  `json:"hits_exact"`
			Alloc     []int `json:"alloc"`
			Evaluated int   `json:"evaluated"`
		} `json:"prediction"`
	}
	if err := json.Unmarshal(raw, &adv); err != nil {
		t.Fatalf("advise response: %v\n%s", err, raw)
	}
	if adv.ProfileKey != prof.Key || !adv.ProfileCached {
		t.Fatalf("advise did not reuse the cached profile: %s", raw)
	}
	if !adv.Prediction.HitsExact || adv.Prediction.Evaluated < 2 || adv.EvalNS <= 0 {
		t.Fatalf("unexpected best-partition answer: %s", raw)
	}
	v2 := getServeVars(t, base)
	if v2.JobsQueued != v1.JobsQueued {
		t.Fatalf("cached advise queued a job: jobs_queued %d -> %d", v1.JobsQueued, v2.JobsQueued)
	}
	if v2.AdviseRequests != 1 || v2.ProfileCacheHits < 1 {
		t.Fatalf("advisor expvars wrong: advise_requests=%d cache_hits=%d",
			v2.AdviseRequests, v2.ProfileCacheHits)
	}

	// 3. Verified what-if: the simulation must confirm the exact
	// contract on the flat default machine, and the delta gauge stays
	// published (and zero).
	code, raw = postJSON(t, base+"/v1/advise", `{`+spec+`,"policy":"part","alloc":[10,6],"verify":true}`)
	if code != http.StatusOK {
		t.Fatalf("verified advise status = %d, body %s", code, raw)
	}
	var ver struct {
		Verify struct {
			HitsExact     bool    `json:"hits_exact"`
			MaxHitsAbsErr uint64  `json:"max_hits_abs_err"`
			MaxIPCRelErr  float64 `json:"max_ipc_rel_err"`
		} `json:"verify"`
	}
	if err := json.Unmarshal(raw, &ver); err != nil {
		t.Fatalf("verified advise response: %v\n%s", err, raw)
	}
	if !ver.Verify.HitsExact || ver.Verify.MaxHitsAbsErr != 0 || ver.Verify.MaxIPCRelErr != 0 {
		t.Fatalf("verify contradicts the exactness contract: %s", raw)
	}
	v3 := getServeVars(t, base)
	if v3.JobsQueued <= v2.JobsQueued {
		t.Fatal("verified advise did not queue the verification simulation")
	}
	if v3.VerifyMaxErr == nil || *v3.VerifyMaxErr != 0 {
		t.Fatalf("advise_verify_max_err = %v, want published 0", v3.VerifyMaxErr)
	}
	if v3.AdviseRequests != 2 {
		t.Fatalf("advise_requests = %d after two advises", v3.AdviseRequests)
	}

	// 4. The catalog advertises the advisor endpoints.
	resp, err := http.Get(base + "/v1/catalog")
	if err != nil {
		t.Fatalf("GET /v1/catalog: %v", err)
	}
	defer resp.Body.Close()
	var cat struct {
		Endpoints []string `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatalf("catalog: %v", err)
	}
	have := map[string]bool{}
	for _, e := range cat.Endpoints {
		have[e] = true
	}
	if !have["POST /v1/profile"] || !have["POST /v1/advise"] {
		t.Fatalf("catalog does not advertise the advisor endpoints: %v", cat.Endpoints)
	}
}
