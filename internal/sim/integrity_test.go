package sim

// End-to-end integrity tests for the disk result cache's sha256
// envelope: corrupt-but-parseable entries — a damaged payload, checksum
// or version — must be detected, quarantined, and recomputed.

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/failpoint"
	"nucache/internal/workload"
)

func TestCacheEnvelopeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4, dir)
	key := Request{Bench: "art-like", Budget: 321}.Key()
	want := Result{Mix: "envelope-roundtrip"}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}

	// The disk entry is enveloped: versioned, checksummed, payload intact.
	raw, err := os.ReadFile(c.diskPath(key))
	if err != nil {
		t.Fatal(err)
	}
	var env diskEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("disk entry is not an envelope: %v\n%s", err, raw)
	}
	if env.V != 1 || len(env.SHA256) != 64 || env.Payload == nil {
		t.Fatalf("bad envelope: %+v", env)
	}

	// A fresh cache (cold memory tier) reads through the envelope.
	c2 := NewCache(4, dir)
	var got Result
	if !c2.Get(key, &got) {
		t.Fatal("enveloped entry missed")
	}
	if got.Mix != want.Mix {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestCacheVersionFlipQuarantined flips one bit of a sealed entry's
// version ("v":1 -> "v":0): the file still parses, but it is no longer a
// v1 envelope, so it must miss, be quarantined and be counted — never
// be served as a raw payload.
func TestCacheVersionFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4, dir)
	key := Request{Bench: "art-like", Budget: 654}.Key()
	if err := c.Put(key, Result{Mix: "sealed"}); err != nil {
		t.Fatal(err)
	}
	path := c.diskPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := strings.Replace(string(raw), `"v":1`, `"v":0`, 1)
	if flipped == string(raw) {
		t.Fatalf("no version field to flip in %s", raw)
	}
	if err := os.WriteFile(path, []byte(flipped), 0o644); err != nil {
		t.Fatal(err)
	}

	qBefore := CacheQuarantined.Value()
	var got Result
	if NewCache(4, dir).Get(key, &got) {
		t.Fatalf("version-flipped entry served as a hit: %+v", got)
	}
	if CacheQuarantined.Value() != qBefore+1 {
		t.Fatal("version-flipped entry not counted as quarantined")
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
}

// TestCacheChecksumCatchesParseableCorruption flips one byte inside the
// payload of a valid envelope — the file still parses as JSON, which the
// pre-envelope cache served as truth — and checks it is detected,
// counted, quarantined, and healed by recomputation.
func TestCacheChecksumCatchesParseableCorruption(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4, dir)
	key := Request{Bench: "art-like", Budget: 987}.Key()
	if err := c.Put(key, Result{Mix: "pristine"}); err != nil {
		t.Fatal(err)
	}
	path := c.diskPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload's value, not its structure: "pristine" ->
	// "Xristine" keeps the JSON valid, so only the checksum can object.
	corrupt := strings.Replace(string(raw), "pristine", "Xristine", 1)
	if corrupt == string(raw) {
		t.Fatal("corruption had no effect")
	}
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}

	failsBefore := CacheChecksumFails.Value()
	qBefore := CacheQuarantined.Value()
	c2 := NewCache(4, dir) // cold memory tier: forces the disk read
	var got Result
	if c2.Get(key, &got) {
		t.Fatalf("checksum-corrupt entry served as a hit: %+v", got)
	}
	if CacheChecksumFails.Value() != failsBefore+1 {
		t.Fatal("checksum failure not counted")
	}
	if CacheQuarantined.Value() != qBefore+1 {
		t.Fatal("checksum-corrupt entry not quarantined")
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}

	// Degrade, don't fail: the key recomputes and serves again.
	if err := c2.Put(key, Result{Mix: "healed"}); err != nil {
		t.Fatal(err)
	}
	c3 := NewCache(4, dir)
	if !c3.Get(key, &got) || got.Mix != "healed" {
		t.Fatalf("healed entry not served: %+v", got)
	}
}

// TestCacheWriteFailpointDegrades arms the sim.cache.write site: the
// disk tier fails exactly as a full or read-only volume would, and the
// cache degrades to memory-only mode without failing the Put.
func TestCacheWriteFailpointDegrades(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm("sim.cache.write", "error"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c := NewCache(4, dir)
	errsBefore := CacheDiskErrors.Value()
	if err := c.Put("k1", Result{Mix: "memory-only"}); err != nil {
		t.Fatalf("Put must not fail when the disk tier degrades: %v", err)
	}
	if c.DiskHealthy() {
		t.Fatal("disk tier still healthy after injected write failure")
	}
	if CacheDiskErrors.Value() != errsBefore+1 {
		t.Fatal("disk error not counted")
	}
	// The in-memory tier still serves.
	var got Result
	if !c.Get("k1", &got) || got.Mix != "memory-only" {
		t.Fatalf("memory tier lost the value: %+v", got)
	}
	// And nothing landed on disk.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("degraded cache wrote %d entries", len(entries))
	}
}

// TestSchedulerJobFailpoint arms the dispatch-boundary site on the 2nd
// hit: the first job succeeds, the second fails with the injected error
// through the normal outcome path (no panic, no hang), the third runs
// clean again.
func TestSchedulerJobFailpoint(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm("sim.sched.job", "error@2"); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(2, nil)
	job := Job{Run: func(context.Context) (any, error) { return 1, nil }}
	if out := s.Do(context.Background(), job); out.Err != nil {
		t.Fatalf("job 1: %v", out.Err)
	}
	out := s.Do(context.Background(), job)
	if !errors.Is(out.Err, failpoint.ErrInjected) {
		t.Fatalf("job 2 err = %v, want injected", out.Err)
	}
	if out := s.Do(context.Background(), job); out.Err != nil {
		t.Fatalf("job 3: %v", out.Err)
	}
}

// TestReplayFailpointFallsBack arms the cpu.replay.run site: the
// simulation falls back to direct simulation with the clean results,
// and the fallback counts under failpoint.
func TestReplayFailpointFallsBack(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	cfg := cpu.DefaultConfig(1)
	cfg.InstrBudget = 50_000
	mix := workload.Mix{Name: "failpoint", Members: []string{"art-like"}}
	lru := func() cache.Policy {
		p, _ := BuildPolicy("LRU", 1, cfg.LLC.Ways, 0)
		return p
	}
	want, _, _ := RunMachine(cfg, lru, mix, 9, true)
	if err := failpoint.Arm("cpu.replay.run", "error"); err != nil {
		t.Fatal(err)
	}
	fallbacks, injected := TraceFallbacks.Value(), fallbacksBy("failpoint")
	got, _, _ := RunMachine(cfg, lru, mix, 9, false)
	if TraceFallbacks.Value() != fallbacks+1 || fallbacksBy("failpoint") != injected+1 {
		t.Fatalf("fallbacks +%d, under failpoint +%d; want +1 each",
			TraceFallbacks.Value()-fallbacks, fallbacksBy("failpoint")-injected)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback diverges from direct simulation\ngot:  %+v\nwant: %+v", got, want)
	}
}

// fallbacksBy reads one key of nucache_trace_fallbacks_by_cause.
func fallbacksBy(cause string) int64 {
	return TraceFallbacksByCause.Get(cause).(*expvar.Int).Value()
}

// TestAdviseQuarantinesInvalidProfileEntry plants a disk entry whose
// envelope is sound but whose payload is an invalid profile. Decoding a
// profile validates it, so the cache read fails and quarantines the
// entry, and /v1/advise recomputes the profile and answers 200 instead
// of serving the bad entry on every request.
func TestAdviseQuarantinesInvalidProfileEntry(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4, dir)
	req := ProfileRequest{Mix: "mix2-01", Budget: 60_000, Seed: 7171}
	sealed, err := sealEnvelope([]byte(`{"version":1,"mix":"mix2-01","cores":2,"ways":16}`))
	if err != nil {
		t.Fatal(err)
	}
	path := c.diskPath(req.Key())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(NewScheduler(2, c)).Handler())
	t.Cleanup(ts.Close)

	qBefore := CacheQuarantined.Value()
	resp := postJSON(t, ts.URL+"/v1/advise", `{"mix":"mix2-01","budget":60000,"seed":7171,"best":true}`)
	var out AdviseResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || out.ProfileCached || out.Prediction == nil {
		t.Fatalf("advise over a planted invalid profile: status %d, %v, %+v", resp.StatusCode, err, out)
	}
	if CacheQuarantined.Value() != qBefore+1 {
		t.Error("planted entry not counted as quarantined")
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Errorf("quarantined copy missing: %v", err)
	}
}
