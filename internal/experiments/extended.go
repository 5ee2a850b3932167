package experiments

import (
	"fmt"

	"nucache/internal/cache"
	"nucache/internal/policy"
)

// ExtendedPolicies adds the replacement-side state of the art that the
// paper did not chart (DIP, DRRIP, SHiP, SLRU, Hawkeye) plus Random as
// a floor — the E19 extended-lineup study.
//
// DIP, DRRIP and Random draw from seed 777 here, where sim.BuildPolicy
// seeds them 12345: E19's published table was measured at 777, and
// rebuilding them from the catalog would change it.
func ExtendedPolicies() []PolicySpec {
	return append(StandardPolicies(),
		PolicySpec{Name: "DIP", New: func(_, _ int) cache.Policy {
			return policy.NewDIP(777)
		}},
		PolicySpec{Name: "DRRIP", New: func(_, _ int) cache.Policy {
			return policy.NewDRRIP(777)
		}},
		catalogSpec("SHiP"),
		catalogSpec("SLRU"),
		catalogSpec("Hawkeye"),
		PolicySpec{Name: "Random", New: func(_, _ int) cache.Policy {
			return policy.NewRandom(777)
		}},
	)
}

// ExtendedComparison runs experiment E19: the full policy lineup
// (partitioning + insertion-policy families) on the standard mixes. It
// returns nil when Options.Ctx interrupts the grid.
func ExtendedComparison(cores int, o Options) *SweepResult {
	return o.sweep(cores, &SweepResult{
		ID:       19,
		Title:    fmt.Sprintf("E19 (extension): full policy lineup, %d-core WS gain over LRU", cores),
		Label:    "policy",
		Baseline: Baseline().Name,
	}, ExtendedPolicies()[1:]) // sweep adds the lineup's LRU baseline itself
}
