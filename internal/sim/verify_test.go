package sim

import (
	"testing"

	"nucache/internal/mrc"
)

// TestVerifyRequestKeys: every advisor answer verifies against the
// simulation a caller would request by hand, so a verified advise and a
// plain /v1/sim of the same configuration share one result-cache entry.
// The pinned keys are the content addresses verification has always
// used; a change to the name mapping or the DeliWays encoding shows up
// here.
func TestVerifyRequestKeys(t *testing.T) {
	adv := AdviseRequest{ProfileRequest: ProfileRequest{Mix: "mix2-01", Budget: 300_000, Seed: 3}}
	base := Request{Mix: "mix2-01", Budget: 300_000, Seed: 3}
	with := func(policy string, deliWays int, alloc ...int) Request {
		r := base
		r.Policy, r.DeliWays, r.Alloc = policy, deliWays, alloc
		return r
	}
	for _, tc := range []struct {
		name string
		pred mrc.Prediction
		want Request
		key  string
	}{
		{"part", mrc.Prediction{Policy: mrc.PolicyPart, Alloc: []int{10, 6}}, with("Part", 0, 10, 6),
			"c31324a4e22a9fd3e5333f2988135e10ab131cfcffe7bca3a9cba81f80fea3d0"},
		{"lru", mrc.Prediction{Policy: mrc.PolicyLRU}, with("LRU", 0),
			"1fb927e25f918f22c9965eef716f4ded8c1300b558edd7c9ef6f50156a5305cf"},
		{"nucache", mrc.Prediction{Policy: mrc.PolicyNUcache, DeliWays: 4}, with("NUcache", 4),
			"05afee512f89c7574ce3859f8c98e1368ddcce049fd4af13f23c3a61caccefb9"},
		{"nucache-none", mrc.Prediction{Policy: mrc.PolicyNUcache}, with("NUcache", -1),
			"cc8f12acc1876e3825498df8c0279c0609b69c5efe0708728ed6448986ccd641"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := adv.VerifyRequest(&tc.pred)
			if err := got.Validate(); err != nil {
				t.Fatalf("verify request invalid: %v", err)
			}
			if got.Key() != tc.want.Key() {
				t.Errorf("verify key %s (%s), want %s (%s)", got.Key(), got.Canonical(), tc.want.Key(), tc.want.Canonical())
			}
			if got.Key() != tc.key {
				t.Errorf("verify key %s, pinned %s", got.Key(), tc.key)
			}
		})
	}
}
