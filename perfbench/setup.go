package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"nucache/internal/experiments"
)

// setupEnv, when set to "<kind>:<dir>", makes the process do one set-up
// of that kind in dir and exit instead of running a workload.
const setupEnv = "PERFBENCH_SETUP"

// processSetups times n set-ups of kind, each a fresh process of this
// binary from its start (runtime and package initialization) until the
// set-up is done and the process has exited, and returns the median in
// seconds.
func processSetups(rc runConfig, kind string, n int) (float64, error) {
	base := filepath.Join(rc.workdir, "setup-"+kind)
	if err := os.RemoveAll(base); err != nil {
		return 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var setups []float64
	for k := 0; k < n; k++ {
		dir := filepath.Join(base, fmt.Sprint(k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), setupEnv+"="+kind+":"+dir)
		cmd.Stderr = os.Stderr
		t0 := nowNS()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("%s set-up process: %w", kind, err)
		}
		setups = append(setups, float64(nowNS()-t0)/1e9)
	}
	return median(setups), nil
}

// setupChild is one set-up process; it returns the exit code. "grid"
// opens a fresh sweep journal, as nucache-sweep -journal does before its
// first cell; "serve" starts the serving stack as nucache-serve does and
// waits until /healthz answers.
func setupChild(spec string) int {
	kind, dir, _ := strings.Cut(spec, ":")
	var err error
	switch kind {
	case "grid":
		j, _, e := experiments.OpenSweepJournal(filepath.Join(dir, "sweep.journal"), false)
		if e == nil {
			e = j.Close()
		}
		err = e
	case "serve":
		var st *stack
		if st, err = startStack(dir, runtime.NumCPU(), nil); err == nil {
			st.close()
		}
	default:
		err = fmt.Errorf("unknown set-up %q", kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	return 0
}
