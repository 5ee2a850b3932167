package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nucache/internal/cpu"
	"nucache/internal/workload"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(NewScheduler(4, NewCache(64, ""))).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerSimRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	body := `{"mix":"mix2-01","policy":"NUcache","budget":100000}`

	resp := postJSON(t, ts.URL+"/v1/sim", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var first SimResponse
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request served from cache")
	}
	if first.Result == nil || first.Result.Cores != 2 || len(first.Result.PerCore) != 2 {
		t.Fatalf("result: %+v", first.Result)
	}
	want := Request{Mix: "mix2-01", Policy: "NUcache", Budget: 100_000}.Key()
	if first.Key != want {
		t.Fatalf("key %s, want %s", first.Key, want)
	}

	// The identical request must be a cache hit with an identical result,
	// and the hit must be visible in /debug/vars.
	hitsBefore := CacheHits.Value()
	resp2 := postJSON(t, ts.URL+"/v1/sim", body)
	defer resp2.Body.Close()
	var second SimResponse
	if err := json.NewDecoder(resp2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated request not served from cache")
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached result differs:\n%s\n%s", a, b)
	}

	vars := struct {
		Hits int64 `json:"nucache_cache_hits"`
	}{}
	dv, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Body.Close()
	if err := json.NewDecoder(dv.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Hits <= hitsBefore {
		t.Fatalf("expvar cache hits %d not past %d", vars.Hits, hitsBefore)
	}
}

// TestServerSimRejectsBadRequests: malformed and out-of-range requests
// answer 400 with kind "invalid" before any job runs, so nothing is
// retried and no simulation or profile is attempted, even on a server
// that retries failed jobs. A NUcache split with no MainWays, a
// prefetch degree above cpu.MaxPrefetch and a warm-up that leaves
// nothing of the budget to measure are request-shape errors too, not
// transient failures of the job, on every path, and /v1/advise answers
// an invalid what-if as /v1/sim answers the same policy fields.
func TestServerSimRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(NewServer(NewSchedulerWith(SchedulerConfig{
		Workers: 2,
		Cache:   NewCache(64, ""),
		Retry:   RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
	})).Handler())
	t.Cleanup(ts.Close)
	drainBackground(t)
	jobs := func() int64 { return JobsDone.Value() + JobsFailed.Value() + JobsRetried.Value() }
	before := jobs()
	for _, tc := range []struct{ path, body string }{
		{"/v1/sim", `{"mix":"mix9-99"}`},                    // unknown mix
		{"/v1/sim", `{"bench":"art-like","mix":"mix2-01"}`}, // two workloads
		{"/v1/sim", `{"policy":"NUcache"}`},                 // no workload
		{"/v1/sim", `{"mix":"mix2-01","bogus":true}`},       // unknown field
		{"/v1/sim", `not json`},
		{"/v1/sim", `{"bench":"art-like","policy":"NUcache","deliways":16}`},
		{"/v1/sweep", `{"mixes":["mix2-01"],"policies":["LRU","NUcache"],"deliways":16}`},
		{"/v1/profile", `{"bench":"art-like","prefetch":65,"budget":20000}`},
		{"/v1/advise", `{"bench":"art-like","prefetch":65,"budget":20000,"best":true}`},
		// Every path holds the machine fields to one bound: a prefetch
		// degree of at most cpu.MaxPrefetch and a warm-up below the
		// budget.
		{"/v1/sim", `{"bench":"art-like","prefetch":65,"budget":20000}`},
		{"/v1/sweep", `{"mixes":["mix2-01"],"policies":["LRU"],"prefetch":65,"budget":20000}`},
		{"/v1/sim", `{"bench":"art-like","warmup":20000,"budget":20000}`},
		{"/v1/profile", `{"bench":"art-like","warmup":20000,"budget":20000}`},
		// A budget above MaxBudget would start unbounded work.
		{"/v1/sim", `{"bench":"art-like","budget":50000001}`},
		{"/v1/sweep", `{"mixes":["mix2-01"],"policies":["LRU"],"budget":50000001}`},
		{"/v1/profile", `{"bench":"art-like","budget":50000001}`},
		{"/v1/advise", `{"bench":"art-like","budget":50000001,"best":true}`},
		// A what-if's policy fields obey /v1/sim's rules for the
		// simulation it maps onto, and the model is part, lru or nucache.
		{"/v1/advise", `{"mix":"mix2-01","alloc":[1,2],"budget":20000}`},
		{"/v1/advise", `{"mix":"mix2-01","policy":"lru","alloc":[8,8],"budget":20000}`},
		{"/v1/advise", `{"bench":"art-like","policy":"nucache","deliways":16,"budget":20000}`},
		{"/v1/advise", `{"bench":"art-like","policy":"nucache","deliways":-7,"budget":20000}`},
		{"/v1/advise", `{"bench":"art-like","policy":"ucp","budget":20000}`},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		var body struct{ Error, Kind string }
		err := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || body.Kind != "invalid" {
			t.Errorf("%s %s: status %d, body %+v (%v)", tc.path, tc.body, resp.StatusCode, body, err)
		}
	}
	if ran := jobs() - before; ran != 0 {
		t.Errorf("rejected requests ran or retried %d jobs", ran)
	}
	// Only NUcache reads deliways; other policies still simulate, and
	// so does the largest prefetch degree.
	for _, body := range []string{
		`{"bench":"art-like","policy":"LRU","deliways":16,"budget":20000}`,
		`{"bench":"art-like","prefetch":64,"budget":20000}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/sim", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", body, resp.StatusCode)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/sim")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sim: %d", resp.StatusCode)
	}
}

func TestServerSweepStreams(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweep",
		`{"mixes":["mix2-01","mix2-02"],"policies":["LRU","NUcache"],"budget":60000}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var results, done int
	seen := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "result":
			results++
			if ev.Error != "" || ev.Result == nil {
				t.Fatalf("job failed: %+v", ev)
			}
			if seen[ev.Index] {
				t.Fatalf("index %d delivered twice", ev.Index)
			}
			seen[ev.Index] = true
		case "done":
			done++
			if ev.Total != 4 || ev.Failed != 0 {
				t.Fatalf("summary %+v", ev)
			}
		default:
			t.Fatalf("unknown event %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if results != 4 || done != 1 {
		t.Fatalf("%d results, %d done lines", results, done)
	}
}

func TestServerCatalogAndHealth(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cat Catalog
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Benchmarks) == 0 || len(cat.Mixes) == 0 || len(cat.Policies) == 0 {
		t.Fatalf("sparse catalog: %d benches, %d mixes, %d policies",
			len(cat.Benchmarks), len(cat.Mixes), len(cat.Policies))
	}
	// Every advertised endpoint is a route the mux mounts, under that
	// exact pattern.
	mux := NewServer(NewScheduler(1, NewCache(1, ""))).Handler().(*http.ServeMux)
	for _, e := range cat.Endpoints {
		method, path, _ := strings.Cut(e, " ")
		if _, pattern := mux.Handler(httptest.NewRequest(method, path, nil)); pattern != e {
			t.Errorf("catalog endpoint %q is routed to pattern %q", e, pattern)
		}
	}

	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Body.Close()
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(h.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Workers != 4 {
		t.Fatalf("health %+v", health)
	}
}

// TestServerProfileFullTapeMemo: under a one-byte tape cap every tape
// admission evicts the tapes the memo holds, so profiling the simulated
// mix, a fresh mix and an advised mix each answer 200, and afterwards
// the memo holds only the advised mix's tapes. Tapes are keyed by
// stream, so a seedless member of an earlier mix is held when the
// advised mix runs the same benchmark.
func TestServerProfileFullTapeMemo(t *testing.T) {
	saved := cpu.SetTapeBudget(1)
	t.Cleanup(func() { cpu.SetTapeBudget(saved) })
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/sim", `{"mix":"mix2-01","policy":"LRU","budget":50000,"seed":9191}`)
	resp.Body.Close()
	for _, c := range []struct{ path, body string }{
		{"/v1/profile", `{"mix":"mix2-01","budget":50000,"seed":9191}`},
		{"/v1/profile", `{"mix":"mix4-02","budget":50000,"seed":9191}`},
		{"/v1/advise", `{"mix":"mix4-03","budget":50000,"seed":9191,"best":true}`},
	} {
		resp := postJSON(t, ts.URL+c.path, c.body)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s under a full memo: status %d: %s", c.path, resp.StatusCode, buf.String())
		}
	}
	advised := map[string]bool{}
	for _, id := range tapeIDs(t, ProfileRequest{Mix: "mix4-03", Budget: 50000, Seed: 9191}) {
		advised[id] = true
	}
	for _, mix := range []string{"mix2-01", "mix4-02", "mix4-03"} {
		req := ProfileRequest{Mix: mix, Budget: 50000, Seed: 9191}.Normalize()
		ids := tapeIDs(t, req)
		cfg := MachineConfig(req.simRequest(), len(ids))
		for i, id := range ids {
			if held := cpu.LookupTape(id, cfg) != nil; held != advised[id] {
				t.Errorf("%s member %d (%s): memoized = %v; want %v", mix, i, id, held, advised[id])
			}
		}
	}
}

// tapeIDs returns the memo id of each member's tape in req's mix.
func tapeIDs(t *testing.T, req ProfileRequest) []string {
	t.Helper()
	req = req.Normalize()
	mix, err := req.ResolveMix()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(mix.Members))
	for i, name := range mix.Members {
		ids[i] = memberTapeID(workload.MustByName(name), req.Seed, i)
	}
	return ids
}

// TestServerRejectsMixWiderThanLLC: a mix with more members than the LLC
// has ways cannot grant every core a way, so the endpoints that take
// members answer 400 before any job runs (a partitioning policy's
// constructor or the advisor's partition search would otherwise fail on
// it).
func TestServerRejectsMixWiderThanLLC(t *testing.T) {
	ts := newTestServer(t)
	members := `"members":[` + strings.TrimSuffix(strings.Repeat(`"art-like",`, 17), ",") + `],"budget":20000`
	bodies := map[string]string{
		"/v1/profile": `{` + members + `}`,
		"/v1/advise":  `{` + members + `,"best":true}`,
	}
	for _, pol := range []string{"TADIP", "UCP", "PIPP", "Part"} {
		bodies["/v1/sim "+pol] = `{` + members + `,"policy":"` + pol + `"}`
	}
	for name, body := range bodies {
		path, _, _ := strings.Cut(name, " ")
		resp := postJSON(t, ts.URL+path, body)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if got := buf.String(); resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, "17 members") {
			t.Errorf("%s: status %d: %.200s", name, resp.StatusCode, got)
		}
	}
}
