package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nbctune/internal/core"
	"nbctune/internal/guideline"
	"nbctune/internal/kb"
)

// TestShareKB: audit -history files an adopted mock, with the evaluations
// its adoption cost, under the key tune -history looks up, into a file
// kb.Open reads back; a registration the audit did not adopt is not filed.
func TestShareKB(t *testing.T) {
	sc := guideline.Scenario{Platform: "whale-tcp", Procs: 8, Size: 262144}
	rep := &guideline.Report{Registrations: []guideline.Registration{
		{Op: "ibcast", Scenario: sc, Chosen: core.MockIbcastScatterAllgather, Adopted: true, Evals: 66},
		{Op: "ialltoall", Scenario: sc, Chosen: "ialltoall-linear"}, // not adopted: not filed
	}}
	path := filepath.Join(t.TempDir(), "h.json")
	hist, err := kb.Open(kb.StoreOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	var diag bytes.Buffer
	if err := fileAdopted(hist, path, rep, &diag); err != nil || diag.String() != "1 adopted winners filed in "+path+"\n" {
		t.Fatalf("fileAdopted: error %v, said %q", err, diag.String())
	}
	file, err := kb.Open(kb.StoreOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	want := kb.Record{Key: core.HistoryKey("ibcast", "whale-tcp", 8, 262144), Winner: core.MockIbcastScatterAllgather, Evals: 66}
	if got := file.Records(); len(got) != 1 || got[0] != want {
		t.Errorf("h.json holds %+v, want only %+v", got, want)
	}
}

// TestMain runs the command itself when TestRefusals re-executes this test
// binary as audit, so a refusal is checked where a user meets it: the exit
// status and the lines printed.
func TestMain(m *testing.M) {
	if os.Getenv("AUDIT_AS_COMMAND") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// audit runs the command and returns its exit status and stderr.
func audit(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), "AUDIT_AS_COMMAND=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("audit %s: %v", strings.Join(args, " "), err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestRefusals: a negative -jobs is refused with one error line and exit
// status 1, before any measurement (0 is GOMAXPROCS; -5 used to be too). The
// unknown matrix makes a missing refusal fail fast on the wrong message.
func TestRefusals(t *testing.T) {
	if code, stderr := audit(t, "-jobs", "-5", "-matrix", "nonesuch"); code != 1 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "worker count") {
		t.Errorf("audit -jobs -5: exit status %d, stderr %q; want exit status 1 and one line naming the worker count", code, stderr)
	}
}

// TestCachedirGone: the store directory is the value of -cache; the separate
// -cachedir flag is gone and is refused as unknown.
func TestCachedirGone(t *testing.T) {
	if code, stderr := audit(t, "-matrix", "nonesuch", "-cachedir", "d"); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -cachedir") {
		t.Errorf("audit -cachedir: exit status %d, stderr %q; want exit status 2 and an unknown-flag error", code, stderr)
	}
}
