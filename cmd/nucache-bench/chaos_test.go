package main

// Chaos suite for crash-safe sweeps: kill the binary at injected
// failpoints across every layer it checkpoints through — scheduler
// dispatch, tape recording, replay commit, journal append, and a torn
// journal write — then restart with -resume and require output
// byte-identical to an uninterrupted golden run.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"text/template"
	"time"

	"nucache/internal/failpoint"
	"nucache/internal/journal"
)

// sweepArgs is the fixed workload every chaos run uses: small enough to
// finish in seconds, large enough to journal 12 cells (2 mixes x 6
// specs) across both scheduler workers.
func sweepArgs(journalPath string, resume bool) []string {
	args := []string{
		"-exp", "E9", "-budget", "50000", "-mixlimit", "2",
		"-parallel", "2", "-journal", journalPath,
	}
	if resume {
		args = append(args, "-resume")
	}
	return args
}

// runMainEnv is runMain with extra child environment (failpoint arming).
func runMainEnv(t *testing.T, env []string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), beBinary+"=1"), env...)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// stripTimings drops the wall-clock footer lines ("(E9 in 1.2s)")
// — the only nondeterministic part of sweep stdout.
func stripTimings(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "(") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestChaosKillAndResume is the end-to-end crash-safety contract: for
// every failpoint site on the sweep's write path, a run killed there
// must leave a journal that a -resume run completes from with output
// byte-identical to the uninterrupted golden run.
func TestChaosKillAndResume(t *testing.T) {
	dir := t.TempDir()
	goldenOut, goldenErr, err := runMain(t, sweepArgs(filepath.Join(dir, "golden.journal"), false)...)
	if err != nil {
		t.Fatalf("golden run failed: %v\nstderr: %s", err, goldenErr)
	}
	if !strings.Contains(goldenErr, "12 records (0 resumed, 0 torn tails)") {
		t.Fatalf("golden journal summary missing or wrong:\n%s", goldenErr)
	}
	golden := stripTimings(goldenOut)

	// Each entry names a failpoint on the sweep's write path. Every grid
	// cell is one simulation, so cpu.replay.run is the commit point of
	// each replayed cell.
	sites := []string{
		"sim.sched.job",       // grid cell dispatch
		"cpu.tape.extend",     // trace recording
		"cpu.replay.run",      // per-cell replay commit
		"journal.append",      // checkpoint write
		"journal.append.torn", // crash between a record's body and CRC
	}
	for _, site := range sites {
		t.Run(site, func(t *testing.T) {
			jpath := filepath.Join(dir, strings.ReplaceAll(site, ".", "_")+".journal")
			hit := 1 + rand.IntN(3)
			spec := fmt.Sprintf("%s=exit@%d", site, hit)
			t.Logf("arming %s", spec)
			_, crashErr, err := runMainEnv(t, []string{failpoint.EnvVar + "=" + spec},
				sweepArgs(jpath, false)...)
			var exit *exec.ExitError
			if err == nil {
				t.Fatalf("sweep survived %s", spec)
			}
			if !errors.As(err, &exit) || exit.ExitCode() != failpoint.ExitCode {
				t.Fatalf("crash exit = %v, want code %d\nstderr: %s", err, failpoint.ExitCode, crashErr)
			}

			out, errOut, err := runMain(t, sweepArgs(jpath, true)...)
			if err != nil {
				t.Fatalf("resume after %s failed: %v\nstderr: %s", spec, err, errOut)
			}
			if got := stripTimings(out); got != golden {
				t.Fatalf("resume after %s diverged from golden run\n--- golden ---\n%s\n--- resumed ---\n%s",
					spec, golden, got)
			}
			// The completed journal holds every cell exactly once.
			if !strings.Contains(errOut, "12 records (") {
				t.Fatalf("resumed journal summary missing:\n%s", errOut)
			}
			if site == "journal.append.torn" && !strings.Contains(errOut, "1 torn tails") {
				t.Fatalf("torn-tail crash not reported on resume:\n%s", errOut)
			}
		})
	}
}

// TestResumeOfCompleteJournalRecomputesNothing reruns a finished sweep
// with -resume: every cell must come from the journal (the summary's
// resumed count equals its record count) and the output must match.
func TestResumeOfCompleteJournalRecomputesNothing(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.journal")
	goldenOut, _, err := runMain(t, sweepArgs(jpath, false)...)
	if err != nil {
		t.Fatalf("initial run failed: %v", err)
	}
	out, errOut, err := runMain(t, sweepArgs(jpath, true)...)
	if err != nil {
		t.Fatalf("resume failed: %v\nstderr: %s", err, errOut)
	}
	if !strings.Contains(errOut, "resumed 12 cells") ||
		!strings.Contains(errOut, "12 records (12 resumed, 0 torn tails)") {
		t.Fatalf("resume did not serve every cell from the journal:\n%s", errOut)
	}
	if stripTimings(out) != stripTimings(goldenOut) {
		t.Fatalf("resumed output diverged:\n%s\nvs\n%s", out, goldenOut)
	}
}

// TestResumeLegacyAnnotatedJournal resumes a journal in the format the
// removed distributed sweep mode wrote: lease, expiry and worker-event
// annotations (records with a "type") interleaved among completions,
// some of which carry a "worker" attribution. Resume must skip every
// annotation — a lease with no completion record proves nothing — take
// attributed completions as ordinary ones, recompute the cells the
// journal lacks, and print output byte-identical to an uninterrupted
// sweep. The journal is hand-written from
// testdata/legacy-annotated.journal.tmpl, with the cell keys and values
// taken from the uninterrupted run's own journal.
func TestResumeLegacyAnnotatedJournal(t *testing.T) {
	dir := t.TempDir()
	goldenPath := filepath.Join(dir, "golden.journal")
	goldenOut, goldenErr, err := runMain(t, sweepArgs(goldenPath, false)...)
	if err != nil {
		t.Fatalf("golden run failed: %v\nstderr: %s", err, goldenErr)
	}
	type cell struct {
		Key string          `json:"key"`
		Val json.RawMessage `json:"val"`
	}
	var cells []cell
	gj, err := journal.Open(goldenPath, func(rec []byte) error {
		var c cell
		err := json.Unmarshal(rec, &c)
		cells = append(cells, c)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	gj.Close()
	if len(cells) != 12 {
		t.Fatalf("golden journal holds %d cells, want 12", len(cells))
	}

	tmpl := template.Must(template.New("legacy-annotated.journal.tmpl").Funcs(template.FuncMap{
		"key": func(i int) string { return cells[i].Key },
		"val": func(i int) string { return string(cells[i].Val) },
	}).ParseFiles(filepath.Join("testdata", "legacy-annotated.journal.tmpl")))
	var text strings.Builder
	if err := tmpl.Execute(&text, nil); err != nil {
		t.Fatal(err)
	}
	legacyPath := filepath.Join(dir, "legacy.journal")
	lj, err := journal.Create(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("template renders a non-JSON record: %s", line)
		}
		if err := lj.Append([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	lj.Close()

	out, errOut, err := runMain(t, sweepArgs(legacyPath, true)...)
	if err != nil {
		t.Fatalf("resume failed: %v\nstderr: %s", err, errOut)
	}
	// Cells 0, 1, 3, 5, 6 and 9 have completion records; the other six
	// (leased, expired, rejected or never touched) are recomputed.
	if !strings.Contains(errOut, "resumed 6 cells") {
		t.Fatalf("resume seeded the wrong cells:\n%s", errOut)
	}
	if stripTimings(out) != stripTimings(goldenOut) {
		t.Fatalf("resumed output diverged:\n%s\nvs\n%s", out, goldenOut)
	}
}

// TestResumeWithoutJournalIsUsageError mirrors the unknown-experiment exit
// contract: -resume without -journal is exit 2 with a pointed message.
func TestResumeWithoutJournalIsUsageError(t *testing.T) {
	_, errOut, err := runMain(t, "-exp", "E9", "-resume")
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("want exit 2, got %v", err)
	}
	if !strings.Contains(errOut, "-resume requires -journal") {
		t.Errorf("stderr does not explain the usage error: %q", errOut)
	}
}

// TestSigintCheckpointsAndExitsCleanly interrupts a long journaled sweep
// mid-flight: the process must exit 0, point the operator at -resume,
// and leave a journal that reopens without error.
func TestSigintCheckpointsAndExitsCleanly(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.journal")
	// Budget sizing: the full sensitivity run takes minutes, so the sweep
	// is reliably mid-flight when the signal lands — but a single cell
	// (shared run plus its alone-IPC runs) still finishes well inside
	// the drain timeout even under the race detector.
	cmd := exec.Command(os.Args[0],
		"-exp", "E9,E10,E12,E13,E21", "-budget", "300000", "-parallel", "2", "-journal", jpath)
	cmd.Env = append(os.Environ(), beBinary+"=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the sweep get in flight, then interrupt. The budget is big
	// enough that the first grid cannot finish this quickly.
	time.Sleep(1 * time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sweep did not exit cleanly on SIGINT: %v\nstderr: %s", err, errb.String())
		}
	case <-time.After(120 * time.Second):
		cmd.Process.Kill()
		t.Fatal("sweep did not exit after SIGINT (in-flight cells should finish in seconds)")
	}
	if !strings.Contains(errb.String(), "interrupted; rerun with -journal") {
		t.Fatalf("interrupted run did not point at -resume:\nstderr: %s", errb.String())
	}
	// The journal left behind is valid (possibly empty if no cell had
	// finished yet) and replays without error.
	j, err := journal.Open(jpath, func([]byte) error { return nil })
	if err != nil {
		t.Fatalf("journal left by SIGINT does not reopen: %v", err)
	}
	j.Close()
}

// TestSecondSigintKills interrupts a single-core table, which runs no
// grid and so does not stop at a cell boundary: the first SIGINT is
// taken, and the second must kill the process instead of waiting for the
// table to finish.
func TestSecondSigintKills(t *testing.T) {
	// E1 over every benchmark at this budget takes far longer than the
	// test waits, so only the second signal can end the process in time.
	cmd := exec.Command(os.Args[0], "-exp", "E1", "-budget", "20000000")
	cmd.Env = append(os.Environ(), beBinary+"=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	for i := 0; i < 2; i++ {
		time.Sleep(500 * time.Millisecond)
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.Success() {
			t.Fatalf("second SIGINT: exit = %v, want killed by the signal", err)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("process survived a second SIGINT")
	}
}

// profileSweepArgs is the advisor-sweep workload for the chaos suite: 2
// mixes, so the journal holds 2 advisor cells.
func profileSweepArgs(journalPath string, resume bool) []string {
	args := []string{
		"-exp", "E21", "-budget", "50000", "-mixlimit", "2",
		"-parallel", "2", "-journal", journalPath,
	}
	if resume {
		args = append(args, "-resume")
	}
	return args
}

// TestChaosProfileSweepKillAndResume extends the crash-safety contract
// to the capacity-advisor sweep: a run killed inside the profiling pass
// (the mrc.profile.build failpoint) must resume from its journal with
// output byte-identical to an uninterrupted golden run.
func TestChaosProfileSweepKillAndResume(t *testing.T) {
	dir := t.TempDir()
	goldenOut, goldenErr, err := runMain(t, profileSweepArgs(filepath.Join(dir, "golden.journal"), false)...)
	if err != nil {
		t.Fatalf("golden run failed: %v\nstderr: %s", err, goldenErr)
	}
	if !strings.Contains(goldenErr, "2 records (0 resumed, 0 torn tails)") {
		t.Fatalf("golden journal summary missing or wrong:\n%s", goldenErr)
	}
	golden := stripTimings(goldenOut)

	jpath := filepath.Join(dir, "mrc_profile_build.journal")
	spec := "mrc.profile.build=exit@1"
	t.Logf("arming %s", spec)
	_, crashErr, err := runMainEnv(t, []string{failpoint.EnvVar + "=" + spec},
		profileSweepArgs(jpath, false)...)
	var exit *exec.ExitError
	if err == nil {
		t.Fatalf("sweep survived %s", spec)
	}
	if !errors.As(err, &exit) || exit.ExitCode() != failpoint.ExitCode {
		t.Fatalf("crash exit = %v, want code %d\nstderr: %s", err, failpoint.ExitCode, crashErr)
	}

	out, errOut, err := runMain(t, profileSweepArgs(jpath, true)...)
	if err != nil {
		t.Fatalf("resume after %s failed: %v\nstderr: %s", spec, err, errOut)
	}
	if got := stripTimings(out); got != golden {
		t.Fatalf("resume after %s diverged from golden run\n--- golden ---\n%s\n--- resumed ---\n%s",
			spec, golden, got)
	}
	if !strings.Contains(errOut, "2 records (") {
		t.Fatalf("resumed journal summary missing:\n%s", errOut)
	}
}
