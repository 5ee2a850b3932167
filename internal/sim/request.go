package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/policy"
	"nucache/internal/workload"
)

// DefaultBudget (instructions per core) and DefaultSeed are the
// defaults of every entry point: requests, profiles, the experiments
// and the commands' flags.
const DefaultBudget, DefaultSeed = 5_000_000, 1

// MaxBudget bounds a request's per-core instruction budget, and so the
// work one request can start: a run's time grows linearly with its
// budget, and an abandoned run holds its CPU until it finishes. No
// program or benchmark sends more than DefaultBudget.
// nucache-bench -budget is not a request and is not bounded.
const MaxBudget = 10 * DefaultBudget

// Request declaratively describes one simulation: a workload (exactly one
// of Bench, Mix or Members), a shared-LLC policy, and the machine knobs
// that affect the outcome. The zero value of every optional field means
// "default", so a normalized Request is canonical and hashable.
type Request struct {
	// Bench runs a single benchmark alone on one core.
	Bench string `json:"bench,omitempty"`
	// Mix runs a standard named mix (e.g. "mix4-01").
	Mix string `json:"mix,omitempty"`
	// Members runs an ad-hoc mix, one benchmark name per core.
	Members []string `json:"members,omitempty"`
	// Policy is the LLC policy name (see Policies); default "NUcache".
	Policy string `json:"policy,omitempty"`
	// Budget is the per-core instruction budget (0 = 5M, at most MaxBudget).
	Budget uint64 `json:"budget,omitempty"`
	// Seed drives the workload generators (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// DeliWays sets NUcache's retention ways: 0 = default (6),
	// -1 = none (degenerates to LRU over the MainWays).
	DeliWays int `json:"deliways,omitempty"`
	// L2 adds a private 256KB 8-way L2 per core.
	L2 bool `json:"l2,omitempty"`
	// DRAM switches to the bank/row-buffer memory model.
	DRAM bool `json:"dram,omitempty"`
	// Prefetch is the next-line prefetch degree, 0 (off) to cpu.MaxPrefetch.
	Prefetch int `json:"prefetch,omitempty"`
	// Alloc is the per-core way allocation for the static "Part"
	// policy (empty = even split). Invalid with other policies.
	Alloc []int `json:"alloc,omitempty"`
	// Warmup excludes each core's first N (< Budget) instructions from statistics.
	Warmup uint64 `json:"warmup,omitempty"`
	// TimeoutMS is a serving knob: the per-request deadline override in
	// milliseconds (0 = the server default). It bounds how long the
	// caller will wait, not what is simulated, so it is deliberately
	// excluded from Canonical()/Key(): the same simulation requested
	// with different deadlines shares one cache entry.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Normalize fills defaulted fields so that equivalent requests compare
// and hash identically.
func (r Request) Normalize() Request {
	if r.Budget == 0 {
		r.Budget = DefaultBudget
	}
	if r.Seed == 0 {
		r.Seed = DefaultSeed
	}
	if r.Policy == "" {
		r.Policy = "NUcache"
	}
	if r.DeliWays == 0 {
		r.DeliWays = core.DefaultDeliWays
	}
	return r
}

// deliWays maps the request encoding (-1 = none) to the literal split;
// other values pass through, so an invalid one stays invalid.
func (r Request) deliWays() int {
	if r.DeliWays == -1 {
		return 0
	}
	return r.DeliWays
}

// DeliWaysField maps a literal split, as the commands' -deliways flags
// take it (0 = no DeliWays), onto the DeliWays field (0 = the default
// split, -1 = none); other values pass through for Validate to judge.
func DeliWaysField(split int) int {
	if split == 0 {
		return -1
	}
	return split
}

// Validate checks workload and policy names, the machine shape (see
// checkShape), the deadline and a Part allocation on a normalized
// request. It is the one rule set for a request's policy and machine
// fields: AdviseRequest.Validate applies it to the simulation a what-if
// maps onto, and ProfileRequest.Validate to the profiling pass's.
func (r Request) Validate() error {
	mix, err := r.ResolveMix()
	if err != nil {
		return err
	}
	if err := r.checkShape(mix.Cores()); err != nil {
		return err
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("sim: negative timeout_ms")
	}
	if len(r.Alloc) > 0 {
		if !strings.EqualFold(r.Policy, "Part") {
			return fmt.Errorf("sim: alloc is only valid with the Part policy")
		}
		if err := policy.CheckSplit(r.Alloc, mix.Cores(), cpu.DefaultConfig(mix.Cores()).LLC.Ways); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// checkShape holds the request rules that need no named mix, for a
// machine of the given width: the mix width, a known policy, the
// deliways range, NUcache keeping at least one MainWay, the prefetch
// bound, a budget of at most MaxBudget and a warm-up below a positive
// budget. Validate applies it to
// requests and ExecuteStreams to trace-file replay, which has no mix.
func (r Request) checkShape(cores int) error {
	ways := cpu.DefaultConfig(cores).LLC.Ways
	if err := checkWidth(cores, ways); err != nil {
		return err
	}
	if !knownPolicy(r.Policy) {
		return fmt.Errorf("sim: unknown policy %q", r.Policy)
	}
	if r.DeliWays < -1 {
		return fmt.Errorf("sim: deliways %d out of range", r.DeliWays)
	}
	// Only NUcache reads deliways; it must leave at least one MainWay.
	if strings.EqualFold(r.Policy, "NUcache") && r.deliWays() >= ways {
		return fmt.Errorf("sim: deliways %d leaves no main ways in a %d-way LLC", r.DeliWays, ways)
	}
	if r.Prefetch < 0 || r.Prefetch > cpu.MaxPrefetch {
		return fmt.Errorf("sim: prefetch degree %d outside [0, %d]", r.Prefetch, cpu.MaxPrefetch)
	}
	if r.Budget > MaxBudget {
		return fmt.Errorf("sim: budget %d above the bound of %d instructions per core", r.Budget, MaxBudget)
	}
	if r.Budget > 0 && r.Warmup >= r.Budget {
		return fmt.Errorf("sim: warmup %d not below budget %d", r.Warmup, r.Budget)
	}
	return nil
}

// checkWidth is the mix-width rule: every partitioning policy grants
// each core at least one way, so a mix has at most one member per LLC
// way. checkShape applies it to requests and trace-file replay, and
// BuildPolicy to every machine it builds a policy for.
func checkWidth(cores, ways int) error {
	if cores > ways {
		return fmt.Errorf("sim: %d members for a %d-way LLC", cores, ways)
	}
	return nil
}

// ResolveMix maps the request's workload fields to a concrete mix.
// Exactly one of Bench, Mix, Members must be set.
func (r Request) ResolveMix() (workload.Mix, error) {
	set := 0
	for _, ok := range [...]bool{r.Bench != "", r.Mix != "", len(r.Members) > 0} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return workload.Mix{}, fmt.Errorf("sim: specify exactly one of bench, mix, members")
	}
	if r.Mix != "" {
		m, ok := workload.MixByName(r.Mix)
		if !ok {
			return workload.Mix{}, fmt.Errorf("sim: unknown mix %q", r.Mix)
		}
		return m, nil
	}
	mix := workload.Mix{Name: "custom", Members: r.Members}
	if r.Bench != "" {
		mix = workload.Mix{Name: "single", Members: []string{r.Bench}}
	}
	for _, m := range mix.Members {
		if _, ok := workload.ByName(m); !ok {
			return workload.Mix{}, fmt.Errorf("sim: unknown benchmark %q", m)
		}
	}
	return mix, nil
}

// Canonical renders the normalized request as a stable string — the
// preimage of the content address. Every field that can change the
// simulation's outcome appears here; nothing else may.
func (r Request) Canonical() string {
	r = r.Normalize()
	fields := []string{
		"nucache-sim/v1",
		"bench=" + r.Bench,
		"mix=" + r.Mix,
		"members=" + strings.Join(r.Members, "+"),
		"policy=" + strings.ToUpper(r.Policy),
		fmt.Sprintf("budget=%d", r.Budget),
		fmt.Sprintf("seed=%d", r.Seed),
		fmt.Sprintf("deliways=%d", r.DeliWays),
		fmt.Sprintf("l2=%v", r.L2),
		fmt.Sprintf("dram=%v", r.DRAM),
		fmt.Sprintf("prefetch=%d", r.Prefetch),
		fmt.Sprintf("warmup=%d", r.Warmup),
	}
	// Appended conditionally so every pre-existing request keeps its
	// content address.
	if len(r.Alloc) > 0 {
		parts := make([]string, len(r.Alloc))
		for i, a := range r.Alloc {
			parts[i] = fmt.Sprintf("%d", a)
		}
		fields = append(fields, "alloc="+strings.Join(parts, "+"))
	}
	return strings.Join(fields, "|")
}

// Key is the request's content address: hex SHA-256 of Canonical().
func (r Request) Key() string {
	sum := sha256.Sum256([]byte(r.Canonical()))
	return hex.EncodeToString(sum[:])
}

// JobFor wraps a request as a schedulable, cacheable job. The request's
// TimeoutMS (if any) becomes the job deadline.
func JobFor(req Request) Job {
	req = req.Normalize()
	return Job{
		Key:     req.Key(),
		Label:   req.Canonical(),
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		New:     func() any { return new(Result) },
		Run: func(ctx context.Context) (any, error) {
			return Execute(ctx, req)
		},
	}
}
