package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"

	"nbctune/internal/bench"
	"nbctune/internal/kb"
)

// TestDefaultOut pins the suite -> summary path table against the three
// committed artifacts: a suite run without -out must only ever rewrite its
// own file, and a figure suite or bundle none.
func TestDefaultOut(t *testing.T) {
	want := map[string]string{
		"verification": "results/sweep_summary.json",
		"fft":          "results/sweep_summary_fft.json",
		"scale":        "results/scale_summary.json",
	}
	for _, suite := range append(bench.SuiteNames(), "nonesuch") {
		if got := defaultOut(suite); got != want[suite] {
			t.Errorf("defaultOut(%q) = %q, want %q", suite, got, want[suite])
		}
	}
	for suite, path := range want {
		if _, err := os.Stat("../../" + path); err != nil {
			t.Errorf("suite %q defaults to %s, which is not a committed artifact: %v", suite, path, err)
		}
	}
}

// TestUnknownSuite: the rejection main prints lists the catalogue's own
// names, so it cannot go stale when a suite is added.
func TestUnknownSuite(t *testing.T) {
	_, err := bench.Suites("nonesuch", true)
	if err == nil {
		t.Fatal("unknown suite resolved")
	}
	if list := strings.Join(bench.SuiteNames(), ", "); !strings.Contains(err.Error(), list) {
		t.Errorf("error %q does not list the catalogue (%s)", err, list)
	}
}

// TestShareKB: -kb reports the count the daemon took delivery of; a daemon
// that fails the batch is an error (main exits 1), never a success line; and
// a suite whose decisions no command looks up — the 3D-FFT sweep — shares
// nothing instead of filing records under keys nobody reads.
func TestShareKB(t *testing.T) {
	recs := []kb.Record{{Key: "k1", Winner: "a", Score: 1}, {Key: "k2", Env: "e", Winner: "b", Score: 2}}
	st := kb.NewStore(kb.StoreOptions{})
	good := httptest.NewServer(kb.NewHandler(st, kb.HandlerOptions{}))
	defer good.Close()
	var diag bytes.Buffer
	if err := shareKB(good.URL, recs, &diag); err != nil || !strings.HasPrefix(diag.String(), "2 tuned winners shared") || st.Len() != 2 {
		t.Errorf("healthy daemon: error %v, %d records stored, said %q", err, st.Len(), diag.String())
	}

	var requests atomic.Int64
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "disk full", http.StatusInternalServerError)
	}))
	defer broken.Close()
	diag.Reset()
	if err := shareKB(broken.URL, recs, &diag); err == nil || diag.Len() != 0 {
		t.Errorf("daemon answering 500 to /v1/batch: error %v, said %q", err, diag.String())
	}

	requests.Store(0)
	if fft := winners(&bench.Outcome{FFT: &bench.FFTSweepStats{}}); fft != nil {
		t.Errorf("an FFT outcome yields %d records no command looks up", len(fft))
	}
	if err := shareKB(broken.URL, nil, &diag); err != nil || requests.Load() != 0 || !strings.Contains(diag.String(), "no tuned winners to share") {
		t.Errorf("nothing to share: error %v, %d requests, said %q", err, requests.Load(), diag.String())
	}
}

// TestMain runs the command itself when TestRefusals re-executes this test
// binary as sweep, so a refusal is checked where a user meets it: the exit
// status and the lines printed.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_AS_COMMAND") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusals: a flag the run cannot honour is refused with one error line
// and exit status 1, before any simulation: a negative worker count (0 is
// GOMAXPROCS; -1 used to be too), and -speculate on a suite that runs no
// selector (it used to be ignored). The unknown suite makes a missing
// worker-count refusal fail fast on the wrong message.
func TestRefusals(t *testing.T) {
	for args, want := range map[string]string{
		"-jobs -1 -suite nonesuch": "worker count",
		"-speculate -suite fft":    "runs no selection logic",
	} {
		cmd := exec.Command(os.Args[0], strings.Fields(args)...)
		cmd.Env = append(os.Environ(), "SWEEP_AS_COMMAND=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || strings.Count(stderr.String(), "\n") != 1 || !strings.Contains(stderr.String(), want) {
			t.Errorf("sweep %s: %v, stderr %q; want exit status 1 and one line containing %q", args, err, stderr.String(), want)
		}
	}
}
