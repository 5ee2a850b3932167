// Package failpoint provides named fault-injection sites for chaos
// testing. Production code marks the places where the real world can
// fail — a disk write, a journal append, a tape extension, a scheduler
// dispatch — with failpoint.Inject("site"); tests and the chaos suite
// arm a site with an action (return an error, panic, or kill the
// process) and a hit count, either programmatically or through the
// NUCACHE_FAILPOINTS environment variable, so crash/recovery paths are
// exercised exactly where they matter.
//
// Disabled cost: when nothing is armed (the production state), Inject
// is a single atomic load and a predictable branch — no map lookup, no
// allocation, no lock. Sites therefore live on per-operation paths
// (one disk write, one journal record, one tape chunk), never inside
// per-access simulation loops.
//
// Spec grammar, both for Arm and for the environment variable
// (comma-separated site=spec pairs):
//
//	site=error        return ErrInjected on every hit
//	site=panic        panic on every hit
//	site=exit         os.Exit(ExitCode) on every hit
//	site=error@3      fire on the 3rd hit only (likewise panic@N, exit@N)
//
// Example:
//
//	NUCACHE_FAILPOINTS='journal.append=exit@7' nucache-bench -exp E7 -journal j
package failpoint

import (
	"errors"
	"expvar"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// EnvVar arms failpoints at process start: a comma-separated list of
// site=spec pairs (see the package comment). Parsed once, in an init
// function, so child processes launched by the chaos suite are armed
// before any site can be hit.
const EnvVar = "NUCACHE_FAILPOINTS"

// ExitCode is the status an exit-action failpoint terminates with. It
// is distinctive so the chaos suite can tell an injected crash from an
// ordinary failure.
const ExitCode = 41

// ErrInjected is the sentinel under every error returned by an armed
// error-action site, so callers (and tests) can recognize injected
// failures with errors.Is.
var ErrInjected = errors.New("failpoint: injected failure")

// Fired counts failpoint activations across all sites (exported as the
// nucache_failpoints_fired expvar). Exit-action sites count before the
// process dies, but the count is in-memory only.
var Fired = expvar.NewInt("nucache_failpoints_fired")

type action uint8

const (
	actError action = iota
	actPanic
	actExit
)

// arming is one armed site's state.
type arming struct {
	act   action
	after int64        // fire on exactly this hit (0 = every hit)
	hits  atomic.Int64 // hit counter, shared across goroutines
}

var (
	// armedCount gates the Inject fast path: zero means no site is
	// armed anywhere and Inject returns immediately.
	armedCount atomic.Int32

	mu    sync.Mutex
	sites = map[string]*arming{}
)

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := ArmSpec(spec); err != nil {
			// A typo in the chaos harness must not be mistaken for "no
			// faults injected": fail loudly.
			fmt.Fprintf(os.Stderr, "failpoint: bad %s: %v\n", EnvVar, err)
			os.Exit(2)
		}
	}
}

// Enabled reports whether any site is currently armed.
func Enabled() bool { return armedCount.Load() > 0 }

// Arm arms one site with a spec like "error", "panic@2" or "exit@7".
// Re-arming a site replaces its action and resets its hit counter.
func Arm(site, spec string) error {
	act, after := actError, int64(0)
	name := spec
	if i := strings.IndexByte(spec, '@'); i >= 0 {
		name = spec[:i]
		n, err := strconv.ParseInt(spec[i+1:], 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("failpoint: bad hit count in %q", spec)
		}
		after = n
	}
	switch name {
	case "error":
		act = actError
	case "panic":
		act = actPanic
	case "exit":
		act = actExit
	default:
		return fmt.Errorf("failpoint: unknown action %q (error|panic|exit)", name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, exists := sites[site]; !exists {
		armedCount.Add(1)
	}
	sites[site] = &arming{act: act, after: after}
	return nil
}

// ArmSpec arms a comma-separated list of site=spec pairs (the EnvVar
// format).
func ArmSpec(list string) error {
	for _, pair := range strings.Split(list, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		site, spec, ok := strings.Cut(pair, "=")
		if !ok || site == "" {
			return fmt.Errorf("failpoint: bad pair %q (want site=action[@N])", pair)
		}
		if err := Arm(site, spec); err != nil {
			return err
		}
	}
	return nil
}

// Disarm removes one site's arming (no-op if it was not armed).
func Disarm(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := sites[site]; exists {
		delete(sites, site)
		armedCount.Add(-1)
	}
}

// Reset disarms every site. Tests use it in cleanup so one test's
// arming cannot leak into another.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for site := range sites {
		delete(sites, site)
		armedCount.Add(-1)
	}
}

// Inject is the site marker. Disabled (the production state) it costs
// one atomic load; armed, it counts the hit and fires the configured
// action when the hit count matches: error actions return a non-nil
// error wrapping ErrInjected, panic actions panic, and exit actions
// terminate the process with ExitCode — an unclean kill, exactly like
// SIGKILL at that site, which is what crash-recovery tests need.
func Inject(site string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	return injectSlow(site)
}

func injectSlow(site string) error {
	mu.Lock()
	a := sites[site]
	mu.Unlock()
	if a == nil {
		return nil
	}
	n := a.hits.Add(1)
	if a.after > 0 && n != a.after {
		return nil
	}
	Fired.Add(1)
	switch a.act {
	case actPanic:
		panic(fmt.Sprintf("failpoint: site %s fired (hit %d)", site, n))
	case actExit:
		fmt.Fprintf(os.Stderr, "failpoint: site %s fired (hit %d): exiting %d\n", site, n, ExitCode)
		os.Exit(ExitCode)
	}
	return fmt.Errorf("failpoint: site %s fired (hit %d): %w", site, n, ErrInjected)
}

// Hits reports how many times an armed site has been reached (0 when
// the site is not armed). For tests.
func Hits(site string) int64 {
	mu.Lock()
	a := sites[site]
	mu.Unlock()
	if a == nil {
		return 0
	}
	return a.hits.Load()
}
