package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRequestKeyDeterminism(t *testing.T) {
	a := Request{Mix: "mix4-01", Policy: "NUcache", Budget: 1_000_000, Seed: 7}
	b := Request{Mix: "mix4-01", Policy: "NUcache", Budget: 1_000_000, Seed: 7}
	if a.Key() != b.Key() {
		t.Fatalf("identical requests hash differently: %s vs %s", a.Key(), b.Key())
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key %q is not hex sha256", a.Key())
	}
	c := b
	c.Seed = 8
	if a.Key() == c.Key() {
		t.Fatal("different seed, same key")
	}
	d := b
	d.Policy = "LRU"
	if b.Key() == d.Key() {
		t.Fatal("different policy, same key")
	}
}

func TestRequestKeyNormalization(t *testing.T) {
	// Explicit defaults and omitted fields mean the same simulation and
	// must share one cache entry.
	implicit := Request{Bench: "art-like"}
	explicit := Request{Bench: "art-like", Policy: "NUcache", Budget: 5_000_000, Seed: 1, DeliWays: 6}
	if implicit.Key() != explicit.Key() {
		t.Fatalf("normalization broken:\n%s\n%s", implicit.Canonical(), explicit.Canonical())
	}
	none := Request{Bench: "art-like", DeliWays: -1}
	if none.Key() == implicit.Key() {
		t.Fatal("deliways=-1 (none) must differ from default")
	}
}

func TestRequestValidate(t *testing.T) {
	for _, bad := range []Request{
		{},                                      // no workload
		{Bench: "art-like", Mix: "mix4-01"},     // two workloads
		{Bench: "no-such-benchmark"},            // unknown bench
		{Mix: "mix9-99"},                        // unknown mix
		{Members: []string{"art-like", "nope"}}, // unknown member
		{Bench: "art-like", Policy: "FancyLFU"}, // unknown policy
	} {
		if err := bad.Normalize().Validate(); err == nil {
			t.Fatalf("request %+v validated", bad)
		}
	}
	good := Request{Mix: "mix2-01", Policy: "ucp"} // case-insensitive policy
	if err := good.Normalize().Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestCacheHitMissAndLRU(t *testing.T) {
	c := NewCache(2, "")
	type v struct{ N int }
	var got v
	if c.Get("a", &got) {
		t.Fatal("hit on empty cache")
	}
	for i, k := range []string{"a", "b"} {
		if err := c.Put(k, v{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Get("a", &got) || got.N != 0 {
		t.Fatalf("miss or wrong value for a: %+v", got)
	}
	// "a" is now MRU; inserting "c" must evict "b".
	if err := c.Put("c", v{N: 2}); err != nil {
		t.Fatal(err)
	}
	if c.Get("b", &got) {
		t.Fatal("LRU entry b survived past capacity")
	}
	if !c.Get("a", &got) || !c.Get("c", &got) {
		t.Fatal("resident entries missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}

	// At a serving-sized capacity the bound is still exact and eviction
	// still follows global recency, whatever the key hashes are.
	const capacity = 512
	big := NewCache(capacity, "")
	keys := make([]string, capacity+64)
	for i := range keys {
		keys[i] = Request{Mix: "mix2-01", Policy: "LRU", Budget: uint64(i + 1)}.Key()
	}
	for i, k := range keys[:capacity] {
		if err := big.Put(k, v{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if big.Len() != capacity {
		t.Fatalf("len %d after filling to capacity, want %d", big.Len(), capacity)
	}
	// Touch the 32 oldest keys; the next 64 inserts must then evict
	// keys[32:96], the least recently used, and nothing else.
	for i, k := range keys[:32] {
		if !big.Get(k, &got) || got.N != i {
			t.Fatalf("key %d: miss or wrong value %+v", i, got)
		}
	}
	for i, k := range keys[capacity:] {
		if err := big.Put(k, v{N: capacity + i}); err != nil {
			t.Fatal(err)
		}
	}
	if big.Len() != capacity {
		t.Fatalf("len %d past capacity, want exactly %d", big.Len(), capacity)
	}
	for i, k := range keys {
		want := i < 32 || i >= 96
		if hit := big.Get(k, &got); hit != want {
			t.Fatalf("key %d resident = %v, want %v", i, hit, want)
		}
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	type v struct{ S string }
	c1 := NewCache(4, dir)
	key := Request{Bench: "art-like"}.Key()
	if err := c1.Put(key, v{S: "hello"}); err != nil {
		t.Fatal(err)
	}
	// Also a non-hex key, which must be hashed into a safe filename.
	if err := c1.Put("mixmetrics/v1|policy=LRU", v{S: "raw"}); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same dir sees both (restart survival).
	c2 := NewCache(4, dir)
	var got v
	if !c2.Get(key, &got) || got.S != "hello" {
		t.Fatalf("disk miss: %+v", got)
	}
	if !c2.Get("mixmetrics/v1|policy=LRU", &got) || got.S != "raw" {
		t.Fatalf("disk miss on raw key: %+v", got)
	}
	// A disk hit is promoted into memory: it counts against the memory
	// bound and keeps serving once the file is gone.
	if c2.Len() != 2 {
		t.Fatalf("len %d after two disk hits, want 2", c2.Len())
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if !c2.Get(key, &got) || got.S != "hello" {
		t.Fatalf("promoted entry lost with the disk file: %+v", got)
	}
}

// TestCacheShardingKeepsSemantics: the result cache is one map at every
// capacity, so a serving-sized cache keeps exact Len and lookup
// semantics — every Put is readable at once and Len counts each entry.
func TestCacheShardingKeepsSemantics(t *testing.T) {
	c := NewCache(4096, "")
	type v struct{ N int }
	for i := 0; i < 1000; i++ {
		key := Request{Mix: "mix2-01", Policy: "LRU", Budget: uint64(i + 1)}.Key()
		if err := c.Put(key, v{N: i}); err != nil {
			t.Fatal(err)
		}
		var got v
		if !c.Get(key, &got) || got.N != i {
			t.Fatalf("key %d: got %+v", i, got)
		}
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", c.Len())
	}
	var got v
	if c.Get("absent", &got) {
		t.Fatal("Get(absent) = true")
	}
}

// TestCacheShardedConcurrentAccess drives Put, Get and Len from many
// goroutines at once (run it under -race); no entry may be lost below
// capacity.
func TestCacheShardedConcurrentAccess(t *testing.T) {
	c := NewCache(8192, "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			type v struct{ N int }
			for i := 0; i < 500; i++ {
				key := Request{Mix: "mix2-01", Policy: "LRU", Budget: uint64(g*1000 + i + 1)}.Key()
				_ = c.Put(key, v{N: i})
				var got v
				c.Get(key, &got)
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 4000 {
		t.Fatalf("Len = %d, want 4000", c.Len())
	}
}

func TestSchedulerResultOrdering(t *testing.T) {
	s := NewScheduler(8, nil)
	const n = 64
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Run: func(context.Context) (any, error) {
			// Earlier jobs sleep longer so completion order inverts
			// submission order; results must still come back in order.
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			return i, nil
		}}
	}
	outs := s.RunAll(context.Background(), jobs)
	if len(outs) != n {
		t.Fatalf("%d outcomes", len(outs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Value.(int) != i {
			t.Fatalf("slot %d holds %v", i, o.Value)
		}
	}
}

// TestSchedulerRunAllSubmissionOrder: with one worker, RunAll starts
// jobs in submission order, so a grid submitted mix by mix runs mix by
// mix and records each mix's tapes once.
func TestSchedulerRunAllSubmissionOrder(t *testing.T) {
	s := NewSchedulerWith(SchedulerConfig{Workers: 1})
	const n = 64
	var mu sync.Mutex
	var started []int
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Run: func(context.Context) (any, error) {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			return i, nil
		}}
	}
	for i, o := range s.RunAll(context.Background(), jobs) {
		if o.Err != nil || o.Value.(int) != i {
			t.Fatalf("slot %d: %+v", i, o)
		}
	}
	if len(started) != n {
		t.Fatalf("%d of %d jobs started", len(started), n)
	}
	for i, j := range started {
		if i != j {
			t.Fatalf("job %d started %dth; start order %v", j, i, started)
		}
	}
}

func TestSchedulerBoundsConcurrency(t *testing.T) {
	const workers = 3
	s := NewScheduler(workers, nil)
	var running, peak atomic.Int64
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{Run: func(context.Context) (any, error) {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return nil, nil
		}}
	}
	s.RunAll(context.Background(), jobs)
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d > %d workers", p, workers)
	}
}

func TestSchedulerPanicRecovery(t *testing.T) {
	s := NewScheduler(2, nil)
	outs := s.RunAll(context.Background(), []Job{
		{Label: "boom", Run: func(context.Context) (any, error) { panic("kaboom") }},
		{Run: func(context.Context) (any, error) { return "ok", nil }},
	})
	if outs[0].Err == nil || outs[0].Err.Error() != "sim: job boom panicked: kaboom" {
		t.Fatalf("panic not converted: %v", outs[0].Err)
	}
	if outs[1].Err != nil || outs[1].Value != "ok" {
		t.Fatalf("sibling job poisoned: %+v", outs[1])
	}
}

func TestSchedulerCancellation(t *testing.T) {
	s := NewScheduler(1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := make(chan Outcome, 1)
	go func() {
		blocker <- s.Do(ctx, Job{Run: func(context.Context) (any, error) {
			close(started)
			<-release
			return nil, nil
		}})
	}()
	// Once the blocker holds the single worker slot, a second job can
	// only wait on the semaphore — where cancellation must reach it.
	<-started
	queued := make(chan Outcome, 1)
	go func() {
		queued <- s.Do(ctx, Job{Run: func(context.Context) (any, error) {
			return nil, nil
		}})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if o := <-queued; !errors.Is(o.Err, context.Canceled) {
		t.Fatalf("queued job outcome: %+v", o)
	}
	close(release)
	if o := <-blocker; o.Err != nil {
		t.Fatalf("started job must finish: %v", o.Err)
	}
}

func TestSchedulerCacheAndDedup(t *testing.T) {
	s := NewScheduler(4, NewCache(16, ""))
	var runs atomic.Int64
	type payload struct{ N int }
	mk := func() Job {
		return Job{
			Key: "same-key",
			New: func() any { return new(payload) },
			Run: func(context.Context) (any, error) {
				runs.Add(1)
				time.Sleep(2 * time.Millisecond)
				return &payload{N: 42}, nil
			},
		}
	}
	// Concurrent identical jobs: in-flight dedup runs the body once and
	// records exactly one miss for the single logical key resolution.
	missesBefore := CacheMisses.Value()
	outs := s.RunAll(context.Background(), []Job{mk(), mk(), mk(), mk()})
	for i, o := range outs {
		if o.Err != nil || o.Value.(*payload).N != 42 {
			t.Fatalf("job %d: %+v", i, o)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("body ran %d times under dedup", got)
	}
	if got := CacheMisses.Value() - missesBefore; got != 1 {
		t.Fatalf("dedup recorded %d misses for one key resolution, want 1", got)
	}
	// A later identical submission hits the cache without running.
	hitsBefore := CacheHits.Value()
	o := s.Do(context.Background(), mk())
	if !o.Cached || o.Value.(*payload).N != 42 {
		t.Fatalf("expected cache hit: %+v", o)
	}
	if CacheHits.Value() <= hitsBefore {
		t.Fatal("cache-hit counter did not advance")
	}
	if runs.Load() != 1 {
		t.Fatal("cached job re-ran")
	}
}

func TestSchedulerErrorsNotCached(t *testing.T) {
	s := NewScheduler(2, NewCache(16, ""))
	var runs atomic.Int64
	fail := Job{
		Key: "flaky",
		New: func() any { return new(int) },
		Run: func(context.Context) (any, error) {
			if runs.Add(1) == 1 {
				return nil, fmt.Errorf("transient")
			}
			n := 9
			return &n, nil
		},
	}
	if o := s.Do(context.Background(), fail); o.Err == nil {
		t.Fatal("first attempt should fail")
	}
	o := s.Do(context.Background(), fail)
	if o.Err != nil || *o.Value.(*int) != 9 {
		t.Fatalf("retry after failure: %+v", o)
	}
}

func TestExecuteSmallRun(t *testing.T) {
	res, err := Execute(context.Background(), Request{
		Members: []string{"art-like", "swim-like"},
		Policy:  "NUcache",
		Budget:  100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 2 || len(res.PerCore) != 2 {
		t.Fatalf("cores: %+v", res)
	}
	if res.NUcache == nil {
		t.Fatal("NUcache internals missing")
	}
	if res.Instructions == 0 || res.LLC.Accesses == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	for i, c := range res.PerCore {
		if c.Core != i || c.IPC <= 0 || c.Instructions < 100_000 {
			t.Fatalf("core %d stat %+v", i, c)
		}
	}
	// Determinism: the same request reproduces the same result.
	res2, err := Execute(context.Background(), Request{
		Members: []string{"art-like", "swim-like"},
		Policy:  "NUcache",
		Budget:  100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LLC != res2.LLC || res.Instructions != res2.Instructions {
		t.Fatalf("nondeterministic: %+v vs %+v", res.LLC, res2.LLC)
	}
	// LRU must not report NUcache internals.
	lru, err := Execute(context.Background(), Request{Bench: "art-like", Policy: "LRU", Budget: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if lru.NUcache != nil {
		t.Fatal("LRU result carries NUcache stats")
	}
}
