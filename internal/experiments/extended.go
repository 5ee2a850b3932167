package experiments

import (
	"fmt"

	"nucache/internal/cache"
	"nucache/internal/policy"
)

// ExtendedPolicies adds the replacement-side state of the art that the
// paper did not chart (DIP, DRRIP) plus Random as a floor — the E19
// extended-lineup study.
func ExtendedPolicies() []PolicySpec {
	return append(StandardPolicies(),
		PolicySpec{Name: "DIP", New: func(_, _ int) cache.Policy {
			return policy.NewDIP(777)
		}},
		PolicySpec{Name: "DRRIP", New: func(_, _ int) cache.Policy {
			return policy.NewDRRIP(777)
		}},
		PolicySpec{Name: "SHiP", New: func(_, _ int) cache.Policy {
			return policy.NewSHiP()
		}},
		PolicySpec{Name: "SLRU", New: func(_, ways int) cache.Policy {
			return policy.NewSLRU(ways / 2)
		}},
		PolicySpec{Name: "Hawkeye", New: func(_, ways int) cache.Policy {
			return policy.NewHawkeye(ways)
		}},
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
