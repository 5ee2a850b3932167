package mrc_test

// Differential suite for the table-driven advisor: Predict,
// BestPartition and BestDeliWays must give answers byte-identical, as
// JSON, to the reference evaluation (reference_test.go), which scores
// every candidate with a full Prediction computed from the profile
// directly. The profiles are the served shape: the default machine's
// 16-way LLC on 2-, 4- and 8-core mixes, with flat memory and with
// banked DRAM.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"nucache/internal/mrc"
	"nucache/internal/sim"
)

// searchProfileBudget keeps the ten profiles quick to build, under
// -race too, while mix2-01 and mix4-01 profile enough next-use reuse
// for NUcache to choose DeliWays splits.
const searchProfileBudget = 300_000

var searchMixes = []string{"mix2-01", "mix4-01", "mix4-06", "mix8-04", "mix8-07"}

type namedProfile struct {
	name string
	p    *mrc.Profile
}

// searchProfiles builds every search mix, flat and with DRAM, once per
// test binary.
var searchProfiles = sync.OnceValues(func() ([]namedProfile, error) {
	var out []namedProfile
	for _, mix := range searchMixes {
		for _, dram := range []bool{false, true} {
			req := sim.ProfileRequest{Mix: mix, Budget: searchProfileBudget, DRAM: dram}
			p, err := sim.ExecuteProfile(context.Background(), req)
			if err != nil {
				return nil, fmt.Errorf("profile %s dram=%v: %w", mix, dram, err)
			}
			name := mix
			if dram {
				name += "/dram"
			}
			out = append(out, namedProfile{name, p})
		}
	}
	return out, nil
})

func mustSearchProfiles(t testing.TB) []namedProfile {
	t.Helper()
	ps, err := searchProfiles()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestSearchesMatchReference(t *testing.T) {
	retained := 0
	for _, np := range mustSearchProfiles(t) {
		mrc.CheckAgainstReference(t, np.name, np.p)
		if best, err := mrc.BestDeliWays(np.p); err == nil && best.DeliWays > 0 {
			retained++
		}
	}
	// The retention benefit is the NUcache path's own code: at least one
	// profile must reach it.
	if retained == 0 {
		t.Error("no profile's best NUcache split retains anything")
	}
}
