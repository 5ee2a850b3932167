package experiments

import (
	"context"
	"strings"
	"testing"

	"nucache/internal/cpu"
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
// with the tape cap lowered to one byte, so once the first tape records
// the memo refuses every new tape and kills every growing one. The grids
// fall back to direct simulation and E21's profiles to private tapes:
// every entry renders its table, and the private tapes leave the memo's
// byte count where it was.
func TestRegistryFullTapeMemo(t *testing.T) {
	saved := cpu.SetTapeBudget(1)
	t.Cleanup(func() { cpu.SetTapeBudget(saved) })
	o := Options{Budget: 20_000, Seed: 4343, MixLimit: 1, BenchLimit: 1}
	for _, e := range Registry {
		t.Run(strings.ReplaceAll(e.ID, "/", "+"), func(t *testing.T) {
			before := cpu.TapeBytes()
			if e.ID == "E21" && before < 1 {
				t.Fatal("the earlier entries recorded no tape, so the memo is not full")
			}
			if tbl := e.Run(o); tbl == nil {
				t.Fatal("nil table under a full tape memo")
			}
			if e.ID == "E21" && cpu.TapeBytes() != before {
				t.Errorf("E21's profiles moved TapeBytes %d -> %d", before, cpu.TapeBytes())
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
