package experiments

import (
	"context"
	"strings"
	"testing"
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
