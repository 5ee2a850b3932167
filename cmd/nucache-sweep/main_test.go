package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// beBinary, when set, makes the test binary act as the real nucache-sweep
// binary (see cmd/nucache-sim for the pattern).
const beBinary = "NUCACHE_SWEEP_BE_BINARY"

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
		"-sweep", "deliways", "-budget", "50000", "-mixlimit", "1", "-parallel", "2")
	if err != nil {
		t.Fatalf("nucache-sweep failed: %v\nstderr: %s", err, errOut)
	}
	if !strings.Contains(out, "deliways") {
		t.Errorf("sweep output missing timing footer:\n%s", out)
	}
	// The sweep renders one row per DeliWays point; a sweep that ran but
	// produced no rows would still print the footer, so check for the
	// gain column marker too.
	if !strings.Contains(out, "LRU") {
		t.Errorf("sweep table missing LRU-relative gain column:\n%s", out)
	}
}

func TestUnknownSweepExitsNonzero(t *testing.T) {
	_, errOut, err := runMain(t, "-sweep", "bogus")
	var exit *exec.ExitError
	if err == nil {
		t.Fatal("unknown sweep accepted")
	}
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("want exit 2, got %v", err)
	}
	if !strings.Contains(errOut, "bogus") {
		t.Errorf("stderr does not name the bad sweep: %q", errOut)
	}
}
