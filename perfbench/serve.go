package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/memory"
	"nucache/internal/sim"
	"nucache/internal/workload"
)

// stack is the in-process serving stack nucache-serve builds: a
// scheduler with nproc workers, a disk-backed result cache and the HTTP
// server on a loopback listener.
type stack struct {
	srv    *http.Server
	url    string
	served chan struct{}
}

// startStack builds the stack with nucache-serve's defaults. A non-nil
// switch wraps the handler in a middleware that records one span per
// request while the switch holds a tracer.
func startStack(dir string, workers int, sw *switchTracer) (*stack, error) {
	sched := sim.NewSchedulerWith(sim.SchedulerConfig{
		Workers:        workers,
		Cache:          sim.NewCache(4096, dir),
		QueueDepth:     8 * workers,
		DefaultTimeout: 5 * time.Minute,
		Retry:          sim.RetryPolicy{MaxAttempts: 2, Backoff: 100 * time.Millisecond},
	})
	sv := sim.NewServer(sched, sim.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	h := sv.Handler()
	if sw != nil {
		h = traceHandler(h, sw)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stack{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln)
	}()
	resp, err := http.Get(st.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close shuts the server down and waits for its serve loop to exit.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.served
}

const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// switchTracer lets one serving stack run its set-up untraced and its
// timed window traced.
type switchTracer struct{ cur atomic.Pointer[tracer] }

// traceHandler records a span around the server's handler, parented to
// the client span whose id the request carries, while sw holds a tracer.
func traceHandler(h http.Handler, sw *switchTracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := sw.cur.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		id, start := tr.begin()
		h.ServeHTTP(w, r)
		tr.end(id, start, parent, req, "http.handler"+r.URL.Path)
	})
}

// load returns the current tracer; nil when tracing is off.
func (s *switchTracer) load() *tracer {
	if s == nil {
		return nil
	}
	return s.cur.Load()
}

// client posts JSON bodies over keep-alive connections, recording a
// span per request while sw holds a tracer.
type client struct {
	hc  *http.Client
	url string
	sw  *switchTracer
}

func newClient(url string, conns int, sw *switchTracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}, Timeout: 2 * time.Minute},
		url: url,
		sw:  sw,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and returns status, body and client latency.
func (c *client) post(path string, body []byte, reqID int64) (int, []byte, int64, error) {
	tr := c.sw.load()
	id, spanStart := tr.begin()
	start := nowNS()
	hreq, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tr != nil {
		hreq.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		hreq.Header.Set(hdrReq, strconv.FormatInt(reqID, 10))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, nil, nowNS() - start, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := nowNS() - start
	tr.end(id, spanStart, 0, reqID, "client"+path)
	return resp.StatusCode, data, lat, err
}

// headerCostNS is the median cost of the span headers one traced
// request carries: formatting and setting them on the client, reading
// and parsing them in the middleware.
func headerCostNS() float64 {
	const n = 10_000
	var sink int64
	ns := repeatNS(5, 0, func() {
		for i := 0; i < n; i++ {
			h := http.Header{}
			h.Set(hdrSpan, strconv.FormatInt(int64(i), 10))
			h.Set(hdrReq, strconv.FormatInt(int64(i), 10))
			a, _ := strconv.ParseInt(h.Get(hdrSpan), 10, 64)
			b, _ := strconv.ParseInt(h.Get(hdrReq), 10, 64)
			sink += a + b
		}
	}) / n
	_ = sink
	return ns
}

// simReply is the part of a /v1/sim response the benchmark checks.
type simReply struct {
	Cached bool            `json:"cached"`
	WallNS int64           `json:"wall_ns"`
	Result json.RawMessage `json:"result"`
}

// reply is one completed request as the client saw it. A window keeps
// one per request, so it stays small: the payloads sit behind data,
// which a workload's hook may drop once it has checked them.
type reply struct {
	idx    int64
	path   string
	status int
	latNS  int64
	endNS  int64
	err    error
	// wallNS and cached are a /v1/sim reply's wall_ns and cached.
	wallNS int64
	cached bool
	// mismatch and warm are set by a workload's reply hook.
	mismatch bool
	warm     int32
	data     *replyData
}

// replyData is a reply's payloads: the request body, a /v1/sim result
// and an advise prediction.
type replyData struct {
	body   []byte
	result json.RawMessage
	pred   json.RawMessage
}

// closedLoop runs conns clients, each sending its next request only
// after the previous reply, until seconds have elapsed. Requests are
// numbered from *next in issue order; gen builds request idx. A non-nil
// hook sees every successful reply on its client's goroutine, so a
// workload can check it and drop its payload instead of keeping it.
func closedLoop(c *client, conns int, seconds float64, next *atomic.Int64, gen func(idx int64) (string, []byte), hook func(*reply)) []reply {
	deadline := nowNS() + int64(seconds*1e9)
	per := make([][]reply, conns)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for nowNS() < deadline {
				idx := next.Add(1) - 1
				path, body := gen(idx)
				rp := reply{idx: idx, path: path, data: &replyData{body: body}}
				var raw []byte
				rp.status, raw, rp.latNS, rp.err = c.post(path, body, idx+1)
				rp.endNS = nowNS()
				if rp.err == nil && rp.status == http.StatusOK {
					switch path {
					case "/v1/sim":
						var sr simReply
						rp.err = json.Unmarshal(raw, &sr)
						rp.wallNS, rp.cached, rp.data.result = sr.WallNS, sr.Cached, sr.Result
					case "/v1/advise":
						var ar struct {
							Prediction json.RawMessage `json:"prediction"`
						}
						rp.err = json.Unmarshal(raw, &ar)
						rp.data.pred = ar.Prediction
					}
					if rp.err == nil && hook != nil {
						hook(&rp)
					}
				}
				per[k] = append(per[k], rp)
			}
		}(k)
	}
	wg.Wait()
	n := 0
	for _, p := range per {
		n += len(p)
	}
	out := make([]reply, 0, n)
	for k := range per {
		out = append(out, per[k]...)
		per[k] = nil
	}
	return out
}

// servePhase is one timed window of closed-loop traffic.
type servePhase struct {
	replies    []reply
	wall, cpuS float64
	d          counters
	// marks cut the window into equal slices; the first is its start
	// and the last its end.
	marks []mark
}

// mark is one reading taken at a slice boundary.
type mark struct {
	ns    int64
	cpu   float64
	instr int64
}

func takeMark() mark { return mark{nowNS(), cpuSeconds(), sim.InstructionsRetired.Value()} }

// runWindow drives nproc closed-loop clients against st for the run's
// seconds, taking a mark at each of slices equal slices. A non-nil sw
// records spans with tr for the whole window.
func runWindow(st *stack, rc runConfig, slices int, sw *switchTracer, tr *tracer, next *atomic.Int64, gen func(int64) (string, []byte), hook func(*reply)) servePhase {
	cl := newClient(st.url, rc.nproc, sw)
	defer cl.close()
	if sw != nil {
		sw.cur.Store(tr)
		defer sw.cur.Store(nil)
	}
	w := openWindow()
	marks := []mark{takeMark()}
	var inner []mark
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for k := 1; k < slices; k++ {
			at := marks[0].ns + int64(float64(k)*rc.seconds*1e9/float64(slices))
			timer := time.NewTimer(time.Duration(at - nowNS()))
			select {
			case <-stop:
				timer.Stop()
				return
			case <-timer.C:
				inner = append(inner, takeMark())
			}
		}
	}()
	replies := closedLoop(cl, rc.nproc, rc.seconds, next, gen, hook)
	close(stop)
	sampler.Wait()
	marks = append(append(marks, inner...), takeMark())
	wall, cpuS, d := w.close()
	return servePhase{replies: replies, wall: wall, cpuS: cpuS, d: d, marks: marks}
}

// machineFor is the machine a normalized request simulates (the same
// mapping the server applies).
func machineFor(req sim.Request, cores int) cpu.Config {
	cfg := cpu.DefaultConfig(cores)
	cfg.InstrBudget = req.Budget
	cfg.PrefetchDegree = req.Prefetch
	cfg.WarmupInstr = req.Warmup
	if req.L2 {
		cfg.L2 = cache.Config{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64}
		cfg.L2Latency = 6
	}
	if req.DRAM {
		d := memory.DefaultConfig()
		cfg.DRAM = &d
	}
	return cfg
}

// windowMetrics fills the end-to-end serving metrics: each is computed
// per slice of the window and the median over slices is reported, so a
// few seconds of host slowdown do not move it. cpu_s is per perReqs
// requests. instr gives the simulated instructions a reply stands for;
// nil counts the instructions the program retired instead. The tail is
// the top percentile when at least ten samples lie beyond it, so it does
// not jump to a higher percentile on a run with more requests.
func windowMetrics(o *outcome, ph servePhase, perReqs, top float64, instr func(*reply) uint64, label string) {
	var p50, tails, rps, cpus, minstr []float64
	sliceTail := "none"
	for k := 0; k+1 < len(ph.marks); k++ {
		a, b := ph.marks[k], ph.marks[k+1]
		var lat []float64
		var simInstr uint64
		for i := range ph.replies {
			r := &ph.replies[i]
			if r.endNS < a.ns || r.endNS >= b.ns {
				continue
			}
			lat = append(lat, float64(r.latNS)/1e6)
			if instr != nil {
				simInstr += instr(r)
			}
		}
		wall := float64(b.ns-a.ns) / 1e9
		n := float64(max(len(lat), 1))
		p50 = append(p50, median(lat))
		ts := tailFrom(lat, top)
		tails = append(tails, ts.value)
		sliceTail = ts.label
		rps = append(rps, float64(len(lat))/wall)
		cpus = append(cpus, (b.cpu-a.cpu)/(n/perReqs))
		if instr == nil {
			simInstr = uint64(b.instr - a.instr)
		}
		minstr = append(minstr, float64(simInstr)/wall/1e6)
	}
	o.values["lat_p50_ms"] = median(p50)
	o.values["lat_tail_ms"] = median(tails)
	o.values["req_per_s"] = median(rps)
	o.values["cpu_s"] = median(cpus)
	o.values["sim_minstr_per_s"] = median(minstr)
	lat := make([]float64, 0, len(ph.replies))
	for _, r := range ph.replies {
		lat = append(lat, float64(r.latNS)/1e6)
	}
	ts := tailFrom(lat, top)
	o.notef("%s: %d requests in %.2fs, %d slices (metrics are medians over slices; a slice's tail is its %s); whole window: latency p50 %.3f ms, tail %s %.3f ms of n=%d",
		label, len(ph.replies), ph.wall, len(p50), sliceTail, median(lat), ts.label, ts.value, ts.n)
}

// countFailures counts transport errors and non-2xx replies.
func countFailures(o *outcome, replies []reply) {
	for _, r := range replies {
		o.attempted++
		if r.err != nil || r.status < 200 || r.status > 299 {
			o.failed++
			if o.failed <= 3 {
				o.problemf("request %d %s: status %d err %v", r.idx, r.path, r.status, r.err)
			}
		}
	}
}

// traceServe fills the span-derived per-layer metrics of a serving
// workload and writes the spans. It runs after probeLayers, whose codec
// timings it subtracts from the handler spans.
func traceServe(rc runConfig, name string, tr *tracer, ph servePhase, o *outcome) error {
	replies := ph.replies
	spans := tr.snapshot()
	handler := map[int64]span{}
	client := map[int64]span{}
	for _, s := range spans {
		if s.Parent == 0 {
			client[s.Req] = s
		} else {
			handler[s.Req] = s
		}
	}
	codecNS := (o.values["json.decode_us.request"] + o.values["json.encode_us.result"]) * 1e3
	var simOver, advOver, waits []float64
	for _, r := range replies {
		h, okH := handler[r.idx+1]
		c, okC := client[r.idx+1]
		if !okH || !okC || r.err != nil {
			continue
		}
		over := float64((c.End - c.Start) - (h.End - h.Start))
		switch r.path {
		case "/v1/sim":
			if r.cached {
				simOver = append(simOver, over)
			}
			waits = append(waits, float64(h.End-h.Start)-float64(r.wallNS)-codecNS)
		case "/v1/advise":
			advOver = append(advOver, over)
		}
	}
	o.values["http.overhead_ms.sim_hit"] = median(simOver) / 1e6
	o.values["http.overhead_ms.advise"] = median(advOver) / 1e6
	waitSum := 0.0
	for _, w := range waits {
		waitSum += w
	}
	o.values["sim.sched_wait_ms"] = waitSum / float64(max(len(waits), 1)) / 1e6
	o.values["trace.coverage_frac"] = coverage(spans, 1)
	// Two spans per request; the traced requests also carry span headers.
	o.values["trace.overhead_frac"] = overheadFrac(spans, 1, float64(len(client))*headerCostNS())
	o.values["sim.cpu_busy_frac"] = ph.cpuS / (ph.wall * float64(rc.nproc))
	o.putCounters(ph.d)
	o.notef("trace: %d client spans, %d handler spans in %.1fs; sim hits %d, advise %d, /v1/sim waits %d",
		len(client), len(handler), ph.wall, len(simOver), len(advOver), len(waits))
	return tr.write(filepath.Join(rc.workdir, fmt.Sprintf("spans-%s-seed%d.json", name, rc.seed)))
}

// mixByName resolves a standard mix.
func mixByName(name string) workload.Mix {
	m, err := sim.Request{Mix: name}.ResolveMix()
	if err != nil {
		panic(err) // names come from workload.MixesFor
	}
	return m
}
