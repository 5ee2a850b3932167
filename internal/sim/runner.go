package sim

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/memory"
	"nucache/internal/policy"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

// Execute runs one simulation synchronously and returns its structured
// result. Cancellation is honored before the run starts; an in-flight
// simulation runs to completion (the machine model has no preemption
// points, and runs at experiment budgets finish in well under a second).
func Execute(ctx context.Context, req Request) (*Result, error) {
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		// Validation failures are permanently invalid: never retried,
		// HTTP 400 at the serving layer.
		return nil, invalid(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mix, _ := req.ResolveMix() // validated above
	cfg := MachineConfig(req, mix.Cores())
	if _, err := buildRequestPolicy(req, cfg); err != nil {
		return nil, err
	}
	newPol := func() cache.Policy {
		// Cannot fail: the same arguments were validated above.
		p, _ := buildRequestPolicy(req, cfg)
		return p
	}
	// RunMachine replays the recorded front end when it can, falls back
	// to direct simulation when it can't, and counts retired
	// instructions either way.
	results, m, pol := RunMachine(cfg, newPol, mix, req.Seed, false)
	return collect(mix, pol, cfg, req.Budget, req.Seed, results, m), nil
}

// ExecuteStreams is nucache-sim's trace-file replay: the request's
// policy and machine over the given streams, one per core, which mix
// names. It checks the rules that need no named mix and does not
// normalize, so a zero budget runs the streams to their end.
func ExecuteStreams(req Request, mix workload.Mix, streams []trace.Stream) (*Result, error) {
	if err := req.checkShape(len(streams)); err != nil {
		return nil, invalid(err)
	}
	cfg := MachineConfig(req, len(streams))
	pol, err := buildRequestPolicy(req, cfg)
	if err != nil {
		return nil, err
	}
	sys := cpu.NewSystem(cfg, pol, streams)
	return collect(mix, pol, cfg, req.Budget, req.Seed, sys.Run(), sys), nil
}

// MachineConfig maps a normalized request's machine knobs onto the CPU
// configuration. It is the one mapping: simulation, MRC profiling, the
// experiments and trace-file replay all describe their machine with it.
func MachineConfig(req Request, cores int) cpu.Config {
	cfg := cpu.DefaultConfig(cores)
	cfg.InstrBudget = req.Budget
	cfg.PrefetchDegree = req.Prefetch
	cfg.WarmupInstr = req.Warmup
	if req.L2 {
		cfg.L2 = cache.Config{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64}
		cfg.L2Latency = 6
	}
	if req.DRAM {
		d := memory.DefaultConfig()
		cfg.DRAM = &d
	}
	return cfg
}

// buildRequestPolicy builds the request's policy, honoring an explicit
// static-partition allocation when one is present.
func buildRequestPolicy(req Request, cfg cpu.Config) (cache.Policy, error) {
	if len(req.Alloc) > 0 && strings.EqualFold(req.Policy, "Part") {
		return policy.NewStaticPart(req.Alloc), nil
	}
	return BuildPolicy(req.Policy, cfg.Cores, cfg.LLC.Ways, req.deliWays())
}

// Lineup is the paper's comparison lineup in display order: the LRU
// baseline, NUcache and the partitioning policies it is measured
// against. It is the default policy list of a sweep and of the
// experiments' multicore tables.
func Lineup() []string {
	return []string{"LRU", "NUcache", "UCP", "PIPP", "TADIP"}
}

// policyNames is the catalog of LLC policies BuildPolicy can build, in
// display order: the lineup first.
var policyNames = append(Lineup(),
	"DIP", "DRRIP", "SRRIP", "NRU", "SHiP", "Hawkeye", "SLRU", "Random", "Part")

// Policies lists the policy names accepted by Request.Policy.
func Policies() []string { return slices.Clone(policyNames) }

func knownPolicy(name string) bool {
	return slices.ContainsFunc(policyNames, func(p string) bool { return strings.EqualFold(p, name) })
}

// BuildPolicy constructs a shared-LLC policy by name for a machine with
// the given core count and associativity; a machine with more cores
// than ways is an error. deliWays applies to NUcache only. Stochastic
// policies use a fixed seed so results stay content-addressable.
func BuildPolicy(name string, cores, ways, deliWays int) (cache.Policy, error) {
	if err := checkWidth(cores, ways); err != nil {
		return nil, err
	}
	switch strings.ToUpper(name) {
	case "LRU":
		return policy.NewLRU(), nil
	case "NUCACHE":
		cfg := core.DefaultConfig(ways)
		cfg.DeliWays = deliWays
		return core.New(cfg)
	case "UCP":
		return policy.NewUCP(cores, ways), nil
	case "PIPP":
		return policy.NewPIPP(cores, ways, 12345), nil
	case "TADIP":
		return policy.NewTADIP(cores, 12345), nil
	case "DIP":
		return policy.NewDIP(12345), nil
	case "DRRIP":
		return policy.NewDRRIP(12345), nil
	case "SRRIP":
		return policy.NewSRRIP(), nil
	case "NRU":
		return policy.NewNRU(), nil
	case "SHIP":
		return policy.NewSHiP(), nil
	case "HAWKEYE":
		return policy.NewHawkeye(ways), nil
	case "SLRU":
		if ways < 2 {
			return nil, fmt.Errorf("sim: SLRU needs a protected and a probationary way, got %d ways", ways)
		}
		return policy.NewSLRU(ways / 2), nil
	case "RANDOM":
		return policy.NewRandom(12345), nil
	case "PART":
		return policy.NewStaticPart(policy.EvenSplit(cores, ways)), nil
	default:
		return nil, fmt.Errorf("sim: unknown policy %q", name)
	}
}
