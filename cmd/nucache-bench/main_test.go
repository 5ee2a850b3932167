package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// beBinary, when set, makes the test binary act as the real nucache-bench
// binary (see cmd/nucache-sim for the pattern).
const beBinary = "NUCACHE_BENCH_BE_BINARY"

func TestMain(m *testing.M) {
	if os.Getenv(beBinary) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), beBinary+"=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

func TestDeliWaysSweep(t *testing.T) {
	out, errOut, err := runMain(t,
		"-exp", "E9", "-budget", "50000", "-mixlimit", "1", "-parallel", "2")
	if err != nil {
		t.Fatalf("nucache-bench failed: %v\nstderr: %s", err, errOut)
	}
	if !strings.Contains(out, "(E9 in ") {
		t.Errorf("sweep output missing timing footer:\n%s", out)
	}
	// The sweep renders one row per DeliWays point; a sweep that ran but
	// produced no rows would still print the footer, so check for the
	// gain column marker too.
	if !strings.Contains(out, "LRU") {
		t.Errorf("sweep table missing LRU-relative gain column:\n%s", out)
	}
}

// TestUnknownExperimentExitsNonzero: an ID the registry lacks is a usage
// error that names it, even next to a valid ID, and nothing runs.
func TestUnknownExperimentExitsNonzero(t *testing.T) {
	out, errOut, err := runMain(t, "-exp", "E4,E99")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("want exit 2, got %v", err)
	}
	if !strings.Contains(errOut, "E99") {
		t.Errorf("stderr does not name the bad experiment: %q", errOut)
	}
	if out != "" {
		t.Errorf("E4 ran despite the usage error:\n%s", out)
	}
}

// TestPotentialTableRendersOnce: E3 and E14 are one registry entry, so
// naming both renders the Potential table once.
func TestPotentialTableRendersOnce(t *testing.T) {
	out, errOut, err := runMain(t, "-exp", "E3,E14", "-budget", "50000", "-bench", "art-like")
	if err != nil {
		t.Fatalf("nucache-bench failed: %v\nstderr: %s", err, errOut)
	}
	if n := strings.Count(out, "== E3"); n != 1 {
		t.Fatalf("Potential table rendered %d times, want 1:\n%s", n, out)
	}
}

// TestRemovedReplayFlagsAreUndefined: grid cells always replay one
// simulation each, so the old grid-engine switches -nomultireplay and
// -laneparallel are usage errors, as is the -noreplay A/B switch (replay
// is bit-identical to direct simulation), and the binary names the flag.
func TestRemovedReplayFlagsAreUndefined(t *testing.T) {
	for _, flagName := range []string{"nomultireplay", "laneparallel", "noreplay"} {
		_, errOut, err := runMain(t, "-"+flagName, "-exp", "E9")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-%s: exit = %v, want usage error (code 2)", flagName, err)
		}
		if !strings.Contains(errOut, "flag provided but not defined: -"+flagName) {
			t.Errorf("-%s: stderr does not name the unknown flag: %q", flagName, errOut)
		}
	}
}
