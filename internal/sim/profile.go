package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"nucache/internal/cpu"
	"nucache/internal/failpoint"
	"nucache/internal/mrc"
	"nucache/internal/workload"
)

// ProfileRequest describes one MRC profiling pass: a workload and the
// policy-independent machine knobs. There is no policy field — that is
// the point: one profile answers what-ifs for every policy the model
// covers.
type ProfileRequest struct {
	Bench    string   `json:"bench,omitempty"`
	Mix      string   `json:"mix,omitempty"`
	Members  []string `json:"members,omitempty"`
	Budget   uint64   `json:"budget,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Warmup   uint64   `json:"warmup,omitempty"`
	L2       bool     `json:"l2,omitempty"`
	DRAM     bool     `json:"dram,omitempty"`
	Prefetch int      `json:"prefetch,omitempty"`
	// TimeoutMS is the serving deadline override; excluded from the
	// content address like Request.TimeoutMS.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Normalize fills defaults (same as Request).
func (r ProfileRequest) Normalize() ProfileRequest {
	if r.Budget == 0 {
		r.Budget = DefaultBudget
	}
	if r.Seed == 0 {
		r.Seed = DefaultSeed
	}
	return r
}

// simRequest maps the profile spec onto a simulation request with no
// policy fields, so mix resolution and the machine stay shared.
func (r ProfileRequest) simRequest() Request {
	return Request{
		Bench: r.Bench, Mix: r.Mix, Members: r.Members,
		Budget: r.Budget, Seed: r.Seed, Warmup: r.Warmup,
		L2: r.L2, DRAM: r.DRAM, Prefetch: r.Prefetch, TimeoutMS: r.TimeoutMS,
	}
}

// Validate checks a normalized profile request by the rules of the
// simulation it profiles.
func (r ProfileRequest) Validate() error {
	return r.simRequest().Normalize().Validate()
}

// ResolveMix maps the workload fields to a concrete mix.
func (r ProfileRequest) ResolveMix() (workload.Mix, error) {
	return r.simRequest().ResolveMix()
}

// Canonical is the profile artifact's content-address preimage.
func (r ProfileRequest) Canonical() string {
	r = r.Normalize()
	return strings.Join([]string{
		"nucache-profile/v1",
		"bench=" + r.Bench,
		"mix=" + r.Mix,
		"members=" + strings.Join(r.Members, "+"),
		fmt.Sprintf("budget=%d", r.Budget),
		fmt.Sprintf("seed=%d", r.Seed),
		fmt.Sprintf("l2=%v", r.L2),
		fmt.Sprintf("dram=%v", r.DRAM),
		fmt.Sprintf("prefetch=%d", r.Prefetch),
		fmt.Sprintf("warmup=%d", r.Warmup),
	}, "|")
}

// Key is the hex SHA-256 of Canonical().
func (r ProfileRequest) Key() string {
	sum := sha256.Sum256([]byte(r.Canonical()))
	return hex.EncodeToString(sum[:])
}

// ExecuteProfile runs the profiling pass: acquire (or record) each
// member's tape and walk it through the MRC profiler. The result is a
// content-addressed artifact that transits the same cache/journal
// machinery as simulation results.
func ExecuteProfile(ctx context.Context, req ProfileRequest) (*mrc.Profile, error) {
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, invalid(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mix, _ := req.ResolveMix() // validated above
	// The failpoint makes profile builds killable/faultable grid cells,
	// exercised by the chaos suite like any simulation job.
	if err := failpoint.Inject("mrc.profile.build"); err != nil {
		return nil, err
	}
	cfg := MachineConfig(req.simRequest(), mix.Cores())
	tapes := acquireMixTapes(cfg, mix, req.Seed, false)
	p, err := mrc.BuildFromTapes(cfg, mix.Name, mix.Members, req.Seed, tapes)
	if errors.Is(err, cpu.ErrNoLLCEvent) {
		// An LLC-quiet core: its tape is dead for good, so a retry
		// would fail the same way.
		return nil, invalid(err)
	}
	if err != nil {
		return nil, err
	}
	MRCProfilesBuilt.Add(1)
	return p, nil
}

// ProfileJobFor wraps a profile request as a schedulable, cacheable job.
func ProfileJobFor(req ProfileRequest) Job {
	req = req.Normalize()
	return Job{
		Key:     req.Key(),
		Label:   req.Canonical(),
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		New:     func() any { return new(mrc.Profile) },
		Run: func(ctx context.Context) (any, error) {
			return ExecuteProfile(ctx, req)
		},
	}
}
