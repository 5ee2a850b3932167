package sim

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/workload"
)

// TestPrivateL2ReplayTerminates: with a private L2, hmmer-, twolf- and
// vpr-like fit their working sets in L2 and stop reaching the LLC, so a
// tape extension waiting for the next LLC event would step the endless
// stream forever. The extension must fail the tape instead, and the
// replay path must fall back to direct simulation (counted in
// nucache_trace_fallbacks): alone and in 2-core mixes, single-policy and
// grid runs finish in seconds and equal direct simulation field for
// field.
func TestPrivateL2ReplayTerminates(t *testing.T) {
	mixes := []workload.Mix{
		{Name: "l2-hmmer", Members: []string{"hmmer-like"}},
		{Name: "l2-twolf", Members: []string{"twolf-like"}},
		{Name: "l2-vpr", Members: []string{"vpr-like"}},
		{Name: "l2-hmmer-twolf", Members: []string{"hmmer-like", "twolf-like"}},
		{Name: "l2-vpr-hmmer", Members: []string{"vpr-like", "hmmer-like"}},
	}
	policies := []string{"LRU", "NUcache"}
	for _, mix := range mixes {
		t.Run(mix.Name, func(t *testing.T) {
			cfg := MachineConfig(Request{Budget: 100_000, L2: true}, mix.Cores())
			newPols := make([]func() cache.Policy, len(policies))
			for i, name := range policies {
				newPols[i] = func() cache.Policy {
					dw := Request{Policy: name}.Normalize().deliWays()
					p, err := BuildPolicy(name, cfg.Cores, cfg.LLC.Ways, dw)
					if err != nil {
						panic(err)
					}
					return p
				}
			}
			done := make(chan struct{})
			var direct, replayed, grid [][]cpu.CoreResult
			go func() {
				defer close(done)
				for _, np := range newPols {
					d, _, _ := RunMachine(cfg, np, mix, 3, true)
					before := TraceFallbacks.Value()
					r, _, _ := RunMachine(cfg, np, mix, 3, false)
					if TraceFallbacks.Value() == before {
						t.Error("replay neither hung nor counted a fallback to direct simulation")
					}
					direct, replayed = append(direct, d), append(replayed, r)
				}
				grid, _, _ = RunMachineGrid(cfg, newPols, mix, 3, false, false, nil)
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("replay with a private L2 did not finish")
			}
			for i, name := range policies {
				if !reflect.DeepEqual(replayed[i], direct[i]) {
					t.Errorf("%s: replay diverges from direct\nreplay: %+v\ndirect: %+v", name, replayed[i], direct[i])
				}
				if !reflect.DeepEqual(grid[i], direct[i]) {
					t.Errorf("%s: grid lane diverges from direct\ngrid:   %+v\ndirect: %+v", name, grid[i], direct[i])
				}
			}
		})
	}
}

// TestProfileLLCQuietCoreIsInvalid: profiling walks a core's tape, and
// an LLC-quiet core (hmmer-like behind a private L2) fails its tape for
// good. That failure is a property of the request, not of the moment:
// the scheduler must not retry it, and /v1/profile and /v1/advise must
// answer 400.
func TestProfileLLCQuietCoreIsInvalid(t *testing.T) {
	req := ProfileRequest{Bench: "hmmer-like", L2: true, Budget: 200_000}
	s := NewSchedulerWith(SchedulerConfig{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond},
	})
	out := s.Do(context.Background(), ProfileJobFor(req))
	if out.Err == nil {
		t.Fatal("profiling an LLC-quiet core succeeded")
	}
	if !errors.Is(out.Err, cpu.ErrNoLLCEvent) {
		t.Errorf("error %v does not wrap cpu.ErrNoLLCEvent", out.Err)
	}
	if kind := Classify(out.Err); kind != KindInvalid || out.Attempts != 1 {
		t.Errorf("kind %v after %d attempts, want invalid after 1", kind, out.Attempts)
	}

	ts := newTestServer(t)
	spec := `"bench":"hmmer-like","l2":true,"budget":200000`
	for _, path := range []string{"/v1/profile", "/v1/advise"} {
		resp := postJSON(t, ts.URL+path, `{`+spec+`}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, http.StatusBadRequest)
		}
	}
}
