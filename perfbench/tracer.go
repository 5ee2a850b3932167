package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are nanoseconds since process start.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// begin allocates a span id and reads the clock; pass both to end.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.ids.Add(1), nowNS()
}

// end records the span that began at start.
func (t *tracer) end(id, start, parent, req int64, name string) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: nowNS()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durations returns the durations, in nanoseconds, of the spans named
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover (children may overlap one another).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		curS, curE := int64(-1), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				covered += curE - curS
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		covered += curE - curS
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// coverage is the summed self time of every span that is not a root,
// over the roots' summed duration times their concurrency: the share of
// the available worker time that named layers account for.
func coverage(spans []span, concurrency int) float64 {
	self := selfTimes(spans)
	var layers, roots int64
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.End - s.Start
		} else {
			layers += self[s.ID]
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(layers) / (float64(roots) * float64(max(concurrency, 1)))
}

// overheadFrac is the time spent recording spans — extraNS plus the
// measured cost of one span times the span count — over the same
// available worker time coverage divides by.
func overheadFrac(spans []span, concurrency int, extraNS float64) float64 {
	var roots int64
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.End - s.Start
		}
	}
	if roots == 0 {
		return 0
	}
	cost := float64(len(spans))*spanCostNS() + extraNS
	return cost / (float64(roots) * float64(max(concurrency, 1)))
}

// spanCostNS is the median cost of recording one span (begin, end and
// the append under the lock) on a scratch tracer.
func spanCostNS() float64 {
	const n = 100_000
	return repeatNS(5, 0, func() {
		t := &tracer{}
		for i := 0; i < n; i++ {
			id, start := t.begin()
			t.end(id, start, 1, int64(i), "span")
		}
	}) / n
}
