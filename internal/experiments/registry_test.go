package experiments

import (
	"context"
	"strings"
	"testing"

	"nucache/internal/cpu"
	"nucache/internal/sim"
)

// TestRegistryCancelledContext runs every registry entry with a context
// cancelled up front. Grid-backed entries must report the interruption
// as a nil table instead of panicking on the missing grid; the entries
// that run no grid render their table as usual. The seed is unique to
// this test, so no grid cell can be a cache hit left by another test.
func TestRegistryCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Budget: 20_000, Seed: 4242, MixLimit: 1, BenchLimit: 1, Ctx: ctx}
	noGrid := map[string]bool{"E1": true, "E2": true, "E3/E14": true, "E4": true, "E5": true, "E15": true, "E16": true}
	for _, e := range Registry {
		t.Run(strings.ReplaceAll(e.ID, "/", "+"), func(t *testing.T) {
			tbl := e.Run(o)
			if noGrid[e.ID] && tbl == nil {
				t.Fatal("single-core table is nil")
			}
			if !noGrid[e.ID] && tbl != nil {
				t.Fatalf("interrupted grid rendered a table:\n%s", tbl.String())
			}
		})
	}
}

// TestRegistryFullTapeMemo runs every registry entry at a tiny budget
// twice over a cold grid cache: at the default tape cap, and with the
// cap lowered to one byte, so every tape admission evicts every tape
// the memo holds, including tapes that running cells are replaying.
// Each entry's table must come out byte-identical, and no simulation
// may fall back to direct: eviction costs re-recording only.
func TestRegistryFullTapeMemo(t *testing.T) {
	o := Options{Budget: 20_000, Seed: 4343, MixLimit: 1, BenchLimit: 1}
	savedCache, savedCap := gridCache, cpu.SetTapeBudget(cpu.DefaultTapeBudget)
	t.Cleanup(func() {
		gridCache = savedCache
		cpu.SetTapeBudget(savedCap)
	})
	// render runs e under the given cap with a cold memo and grid
	// cache, so every cell simulates.
	render := func(t *testing.T, e Experiment, capBytes int64) string {
		cpu.ResetTapes()
		cpu.SetTapeBudget(capBytes)
		gridCache = sim.NewCache(8192, "")
		tbl := e.Run(o)
		if tbl == nil {
			t.Fatalf("nil table at a %d-byte tape cap", capBytes)
		}
		return tbl.String()
	}
	fallbacks, evicted := sim.TraceFallbacks.Value(), cpu.TapesEvicted()
	for _, e := range Registry {
		t.Run(strings.ReplaceAll(e.ID, "/", "+"), func(t *testing.T) {
			want := render(t, e, cpu.DefaultTapeBudget)
			if got := render(t, e, 1); got != want {
				t.Errorf("table under a full tape memo:\n%s\nat the default cap:\n%s", got, want)
			}
		})
	}
	if got := sim.TraceFallbacks.Value() - fallbacks; got != 0 {
		t.Errorf("%d simulations fell back to direct", got)
	}
	if cpu.TapesEvicted() == evicted {
		t.Error("the one-byte cap evicted no tape")
	}
}

// TestSelect: IDs are case-insensitive and come back once each, in
// registry order; E3 and E14 both name the one Potential entry.
func TestSelect(t *testing.T) {
	ids := func(sel []Experiment) string {
		var out []string
		for _, e := range sel {
			out = append(out, e.ID)
		}
		return strings.Join(out, ",")
	}
	for _, c := range []struct{ in, want string }{
		{"E14,e7, E3", "E3/E14,E7"},
		{"E21,E4", "E4,E21"},
	} {
		sel, err := Select(c.in)
		if err != nil || ids(sel) != c.want {
			t.Errorf("Select(%q) = %s, %v; want %s", c.in, ids(sel), err, c.want)
		}
	}
	if sel, err := Select("all"); err != nil || len(sel) != len(Registry) {
		t.Errorf("Select(all) = %d entries, %v; want %d", len(sel), err, len(Registry))
	}
}
