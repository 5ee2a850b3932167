package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"nucache/internal/failpoint"
	"nucache/internal/sim"
)

// beBinary, when set, makes the test binary act as the real
// nucache-advise binary (see cmd/nucache-sim for the pattern).
const beBinary = "NUCACHE_ADVISE_BE_BINARY"

func TestMain(m *testing.M) {
	if os.Getenv(beBinary) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	return runMainEnv(t, nil, args...)
}

// runMainEnv is runMain with extra environment variables.
func runMainEnv(t *testing.T, env []string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), beBinary+"=1"), env...)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// adviseArgs keeps the smoke runs fast: a 2-core mix at a small budget.
func adviseArgs(extra ...string) []string {
	return append([]string{"-mix", "mix2-01", "-budget", "100000"}, extra...)
}

func TestAdviseBestPartition(t *testing.T) {
	out, errOut, err := runMain(t, adviseArgs("-best")...)
	if err != nil {
		t.Fatalf("nucache-advise failed: %v\nstderr: %s", err, errOut)
	}
	for _, want := range []string{"model   part", "hits exact", "answer"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAdviseVerifyJSON(t *testing.T) {
	out, errOut, err := runMain(t, adviseArgs("-alloc", "10,6", "-verify", "-json")...)
	if err != nil {
		t.Fatalf("nucache-advise failed: %v\nstderr: %s", err, errOut)
	}
	var resp sim.AdviseResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("output is not an AdviseResponse: %v\n%s", err, out)
	}
	if resp.Prediction == nil || !resp.Prediction.HitsExact {
		t.Fatalf("partition prediction not marked exact: %+v", resp.Prediction)
	}
	if resp.Verify == nil {
		t.Fatal("-verify produced no verify report")
	}
	// The exactness contract, end to end: the simulated hit counts match
	// the model's, per core, exactly (flat default machine).
	if !resp.Verify.HitsExact || resp.Verify.MaxHitsAbsErr != 0 {
		t.Errorf("verify contradicts the exactness contract: %+v", resp.Verify)
	}
	if resp.EvalNS <= 0 {
		t.Errorf("EvalNS not recorded: %d", resp.EvalNS)
	}
}

func TestAdviseNUcacheBest(t *testing.T) {
	out, errOut, err := runMain(t, adviseArgs("-policy", "nucache", "-best", "-json")...)
	if err != nil {
		t.Fatalf("nucache-advise failed: %v\nstderr: %s", err, errOut)
	}
	var resp sim.AdviseResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("output is not an AdviseResponse: %v\n%s", err, out)
	}
	if resp.Prediction.Policy != "nucache" {
		t.Errorf("wrong policy in answer: %q", resp.Prediction.Policy)
	}
	if resp.Prediction.Evaluated < 2 {
		t.Errorf("best search evaluated only %d splits", resp.Prediction.Evaluated)
	}
}

// TestAdviseRejectsBadAlloc: an allocation that does not fill the LLC,
// the other invalid what-ifs /v1/advise rejects, and a budget above
// sim.MaxBudget exit 2 before the mix is profiled: the profile build's
// failpoint, armed to exit, never fires.
func TestAdviseRejectsBadAlloc(t *testing.T) {
	for _, args := range [][]string{
		{"-alloc", "3,2"},
		{"-policy", "lru", "-alloc", "8,8"},
		{"-policy", "nucache", "-deliways", "16"},
		{"-policy", "ucp"},
		{"-budget", "50000001"},
	} {
		_, errOut, err := runMainEnv(t, []string{failpoint.EnvVar + "=mrc.profile.build=exit"}, adviseArgs(args...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: want exit 2, got %v (stderr %q)", args, err, errOut)
		}
		if !strings.HasPrefix(errOut, "nucache-advise: sim: ") {
			t.Errorf("%v: stderr does not explain the request error: %q", args, errOut)
		}
	}
}

// TestAdviseDeliWaysIsLiteral: -deliways takes the literal split, as
// nucache-sim's does: 0 is no DeliWays, and the default is 6.
func TestAdviseDeliWaysIsLiteral(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-policy", "nucache", "-deliways", "0"}, 0},
		{[]string{"-policy", "nucache", "-deliways", "4"}, 4},
		{[]string{"-policy", "nucache"}, 6},
	} {
		out, errOut, err := runMain(t, adviseArgs(append(tc.args, "-json")...)...)
		if err != nil {
			t.Fatalf("%v: %v\nstderr: %s", tc.args, err, errOut)
		}
		var resp sim.AdviseResponse
		if err := json.Unmarshal([]byte(out), &resp); err != nil {
			t.Fatalf("%v: output is not an AdviseResponse: %v\n%s", tc.args, err, out)
		}
		if resp.Prediction.DeliWays != tc.want {
			t.Errorf("%v: answered deliways %d, want %d", tc.args, resp.Prediction.DeliWays, tc.want)
		}
	}
}
