package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"nbctune/internal/core"
	"nbctune/internal/guideline"
	"nbctune/internal/kb"
)

// TestShareKB: audit -kb files an adopted mock under the key tune looks up,
// reports the count the daemon took delivery of, and treats a daemon that
// fails the batch as an error (main exits 1), never as a success line.
func TestShareKB(t *testing.T) {
	sc := guideline.Scenario{Platform: "whale-tcp", Procs: 8, Size: 262144}
	rep := &guideline.Report{Registrations: []guideline.Registration{
		{Op: "ibcast", Scenario: sc, Chosen: core.MockIbcastScatterAllgather, Adopted: true, Evals: 66},
		{Op: "ialltoall", Scenario: sc, Chosen: "ialltoall-linear"}, // not adopted: not shared
	}}
	st := kb.NewStore(kb.StoreOptions{})
	good := httptest.NewServer(kb.NewHandler(st, kb.HandlerOptions{}))
	defer good.Close()
	var diag bytes.Buffer
	if err := shareKB(good.URL, rep, &diag); err != nil || !strings.HasPrefix(diag.String(), "1 adopted winners shared") {
		t.Errorf("healthy daemon: error %v, said %q", err, diag.String())
	}
	if r, ok := st.Lookup(core.HistoryKey("ibcast", "whale-tcp", 8, 262144), ""); !ok || r.Winner != core.MockIbcastScatterAllgather {
		t.Errorf("adopted mock under tune's key: %+v (found=%v)", r, ok)
	}

	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "disk full", http.StatusInternalServerError)
	}))
	defer broken.Close()
	diag.Reset()
	if err := shareKB(broken.URL, rep, &diag); err == nil || diag.Len() != 0 {
		t.Errorf("daemon answering 500 to /v1/batch: error %v, said %q", err, diag.String())
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

// TestRefusals: a negative -jobs is refused with one error line and exit
// status 1, before any measurement (0 is GOMAXPROCS; -5 used to be too). The
// unknown matrix makes a missing refusal fail fast on the wrong message.
func TestRefusals(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-jobs", "-5", "-matrix", "nonesuch")
	cmd.Env = append(os.Environ(), "AUDIT_AS_COMMAND=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || strings.Count(stderr.String(), "\n") != 1 || !strings.Contains(stderr.String(), "worker count") {
		t.Errorf("audit -jobs -5: %v, stderr %q; want exit status 1 and one line naming the worker count", err, stderr.String())
	}
}
