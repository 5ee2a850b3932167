package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nucache/internal/sim"
)

// beBinary, when set, makes the test binary act as the real nucache-sim
// binary: TestMain dispatches straight into main(). Smoke tests re-exec
// os.Args[0] with it set, exercising flag parsing, the simulator and the
// output encoders end to end without a separate `go build`.
const beBinary = "NUCACHE_SIM_BE_BINARY"

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

func TestJSONOutput(t *testing.T) {
	out, errOut, err := runMain(t, "-bench", "ammp-like", "-budget", "150000", "-json")
	if err != nil {
		t.Fatalf("nucache-sim -json failed: %v\nstderr: %s", err, errOut)
	}
	var res struct {
		Policy  string `json:"policy"`
		PerCore []struct {
			IPC          float64 `json:"ipc"`
			Instructions uint64  `json:"instructions"`
		} `json:"per_core"`
		LLC struct {
			Accesses uint64 `json:"accesses"`
			Misses   uint64 `json:"misses"`
		} `json:"llc"`
		NUcache *struct {
			Epochs int `json:"epochs"`
		} `json:"nucache"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if res.Policy != "NUcache" {
		t.Errorf("policy = %q, want NUcache", res.Policy)
	}
	if len(res.PerCore) != 1 || res.PerCore[0].IPC <= 0 || res.PerCore[0].Instructions == 0 {
		t.Errorf("bad per-core stats: %+v", res.PerCore)
	}
	if res.LLC.Accesses == 0 || res.LLC.Misses == 0 {
		t.Errorf("LLC saw no traffic: %+v", res.LLC)
	}
	if res.NUcache == nil {
		t.Error("nucache section missing from JSON output")
	}
}

func TestTextOutput(t *testing.T) {
	out, errOut, err := runMain(t, "-bench", "ammp-like", "-budget", "120000", "-policy", "LRU")
	if err != nil {
		t.Fatalf("nucache-sim failed: %v\nstderr: %s", err, errOut)
	}
	if !strings.Contains(out, "LLC:") || !strings.Contains(out, "ammp-like") {
		t.Errorf("text report missing expected sections:\n%s", out)
	}
}

func TestList(t *testing.T) {
	out, _, err := runMain(t, "-list")
	if err != nil {
		t.Fatalf("nucache-sim -list failed: %v", err)
	}
	for _, want := range []string{"benchmarks", "ammp-like", "mix4-01"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestUnknownBenchExitsNonzero(t *testing.T) {
	_, errOut, err := runMain(t, "-bench", "no-such-bench", "-json")
	var exit *exec.ExitError
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("want nonzero exit, got %v (stderr %q)", err, errOut)
	}
	if !strings.Contains(errOut, "no-such-bench") {
		t.Errorf("stderr does not name the bad benchmark: %q", errOut)
	}
}

// TestReplayCutTraceFails: a recorded trace replays cleanly, and the
// same trace cut mid-record (its last byte dropped) fails the replay
// with exit status 1, naming the file, instead of printing the result of
// a shorter run.
func TestReplayCutTraceFails(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "art")
	if _, errOut, err := runMain(t, "-bench", "art-like", "-record", prefix, "-recordn", "20000"); err != nil {
		t.Fatalf("record failed: %v\nstderr: %s", err, errOut)
	}
	path := prefix + ".core0.trc"
	if _, errOut, err := runMain(t, "-replay", path, "-policy", "LRU"); err != nil {
		t.Fatalf("replay of the whole trace failed: %v\nstderr: %s", err, errOut)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, err := runMain(t, "-replay", path, "-policy", "LRU")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("cut trace: want exit 1, got %v\nstdout: %s", err, out)
	}
	if !strings.Contains(errOut, path) || out != "" {
		t.Errorf("cut trace: stderr %q does not name %s, or a result was printed:\n%s", errOut, path, out)
	}
}

// TestReplayWiderThanLLCFails: a replay of more trace files than the
// LLC has ways is refused with the same width error as -members, exit
// status 2 and no result, under every policy — the partitioning ones
// included, which would otherwise panic building their quotas.
func TestReplayWiderThanLLCFails(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "art")
	if _, errOut, err := runMain(t, "-bench", "art-like", "-record", prefix, "-recordn", "20000"); err != nil {
		t.Fatalf("record failed: %v\nstderr: %s", err, errOut)
	}
	files := strings.TrimSuffix(strings.Repeat(prefix+".core0.trc,", 17), ",")
	for _, pol := range []string{"LRU", "UCP", "PIPP", "Part", "TADIP"} {
		out, errOut, err := runMain(t, "-replay", files, "-policy", pol)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: want exit 2, got %v\nstderr: %s", pol, err, errOut)
		}
		if !strings.Contains(errOut, "17 members for a 16-way LLC") || strings.Contains(errOut, "panic") || out != "" {
			t.Errorf("%s: stderr %q lacks the width error, or a result was printed:\n%s", pol, errOut, out)
		}
	}
}

// TestReplayKeepsShapeRules: a replay is held to the same request
// rules as a generator-backed run (a known policy, the prefetch bound,
// deliways range, NUcache keeping a MainWay, warm-up below the budget):
// both refuse with the same message, exit status 2 (a refused request,
// where a trace that fails to read exits 1) and no result, instead of
// running with the flag silently dropped.
func TestReplayKeepsShapeRules(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "art")
	if _, errOut, err := runMain(t, "-bench", "art-like", "-record", prefix, "-recordn", "20000"); err != nil {
		t.Fatalf("record failed: %v\nstderr: %s", err, errOut)
	}
	for _, flags := range [][]string{
		{"-policy", "Bogus"},
		{"-policy", "Part", "-prefetch", "-3"},
		{"-policy", "Part", "-prefetch", "65"},
		{"-policy", "NUcache", "-deliways", "-5"},
		{"-policy", "NUcache", "-deliways", "16"},
		{"-budget", "20000", "-warmup", "20000"},
		{"-budget", "50000001"},
	} {
		_, benchErr, err := runMain(t, append([]string{"-bench", "art-like"}, flags...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: -bench run wants exit 2, got %v", flags, err)
		}
		msg := strings.TrimSpace(strings.TrimPrefix(benchErr, "nucache-sim: "))
		out, errOut, err := runMain(t, append([]string{"-replay", prefix + ".core0.trc"}, flags...)...)
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: replay wants exit 2, got %v\nstdout: %s", flags, err, out)
		}
		if !strings.HasPrefix(msg, "sim: ") || !strings.Contains(errOut, msg) || out != "" {
			t.Errorf("%v: replay stderr %q lacks -bench's %q, or a result was printed:\n%s", flags, errOut, msg, out)
		}
	}
}

// TestHelpListsEveryPolicy: the -policy usage line names exactly the
// policies sim.BuildPolicy accepts, so a policy added to the catalog
// shows up in -h without a second edit.
func TestHelpListsEveryPolicy(t *testing.T) {
	_, errOut, err := runMain(t, "-h")
	if err != nil {
		t.Fatalf("nucache-sim -h failed: %v\nstderr: %s", err, errOut)
	}
	_, usage, ok := strings.Cut(errOut, "-policy string\n")
	if !ok {
		t.Fatalf("-h output has no -policy flag:\n%s", errOut)
	}
	usage, _, _ = strings.Cut(usage, "\n")
	usage, _, _ = strings.Cut(usage, " (default")
	_, list, ok := strings.Cut(usage, "LLC policy: ")
	if !ok {
		t.Fatalf("-policy usage = %q, want an \"LLC policy: \" list", usage)
	}
	listed := map[string]bool{}
	for _, name := range strings.Split(list, "|") {
		listed[name] = true
	}
	for _, name := range sim.Policies() {
		if !listed[name] {
			t.Errorf("-policy usage %q omits %s", usage, name)
		}
	}
}
