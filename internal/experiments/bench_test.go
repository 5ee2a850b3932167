package experiments

import (
	"strings"
	"testing"

	"nucache/internal/cpu"
	"nucache/internal/sim"
)

// BenchmarkRegistry times every Registry entry at reduced scale, one
// sub-benchmark per entry (`-bench 'Registry/E7$'` picks one; for
// full-scale artifacts run cmd/nucache-bench). Every iteration is a
// cold run: before it, outside the timer, the process-wide memos an
// entry would otherwise hit — the tape memo, the grid cache and the
// alone-run memo — are emptied, so it records and simulates what a
// fresh nucache-bench process would.
func BenchmarkRegistry(b *testing.B) {
	o := Options{Budget: 200_000, Seed: 1, MixLimit: 2, BenchLimit: 6}
	saved := gridCache
	b.Cleanup(func() { gridCache = saved })
	for _, e := range Registry {
		b.Run(strings.ReplaceAll(e.ID, "/", "+"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cpu.ResetTapes()
				gridCache = sim.NewCache(8192, "")
				aloneMu.Lock()
				aloneCache = map[aloneKey]*aloneEntry{}
				aloneMu.Unlock()
				b.StartTimer()
				if e.Run(o) == nil {
					b.Fatal("nil table")
				}
			}
		})
	}
}
