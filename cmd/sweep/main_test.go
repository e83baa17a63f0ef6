package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nbctune/internal/bench"
	"nbctune/internal/core"
	"nbctune/internal/guideline"
	"nbctune/internal/kb"
	"nbctune/internal/platform"
)

// TestDefaultOut: without -out a suite writes no file, not even the
// aggregate suites whose summaries are committed under results/ (each has
// its one command, with -out, in EXPERIMENTS.md).
func TestDefaultOut(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := sweep(t, dir, "-suite guidelines -fast -quiet"); code != 0 {
		t.Fatalf("sweep -suite guidelines -fast: exit status %d\n%s", code, stderr)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("sweep without -out left %d entries in its directory (%v)", len(left), err)
	}
}

// TestCSV: -csv prints every table as one header line and one
// comma-separated line per row, holding the cells of the aligned table the
// same run prints without it (fig6, the cheapest figure suite).
func TestCSV(t *testing.T) {
	dir := t.TempDir()
	code, text, stderr := sweep(t, dir, "-suite fig6 -fast -quiet")
	if code != 0 {
		t.Fatalf("sweep -suite fig6 -fast: exit status %d\n%s", code, stderr)
	}
	code, csv, stderr := sweep(t, dir, "-suite fig6 -fast -quiet -csv")
	if code != 0 {
		t.Fatalf("sweep -suite fig6 -fast -csv: exit status %d\n%s", code, stderr)
	}
	var want, got []string
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "## ") && !strings.HasPrefix(line, "-") {
			want = append(want, strings.Join(strings.Fields(line), ","))
		}
	}
	for _, line := range strings.Split(csv, "\n") {
		if line != "" {
			got = append(got, line)
		}
	}
	if len(want) < 2 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("sweep -csv printed\n%s\nwant the header and rows of\n%s", csv, text)
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

// TestShareKB: -history files the best fixed implementation of every
// verification scenario, with its score, and every mock a guideline audit
// adopted, with the evaluations that cost, under the key and environment tune
// -history looks up, into a file kb.Open reads back; a stored better score
// keeps its record, and a registration the audit did not adopt is not filed.
// A suite whose decisions no command looks up — the 3D-FFT sweep — yields no
// records (and is refused before it runs; TestRefusals).
func TestShareKB(t *testing.T) {
	plat, err := platform.ByName("crill")
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int, chaos string, best string, score float64) *bench.Verification {
		return &bench.Verification{
			Spec:  bench.MicroSpec{Platform: plat, Procs: procs, MsgSize: 1024, Op: "ibcast", Chaos: chaos, ChaosSeed: 3},
			Fixed: []bench.MicroResult{{Impl: "slow", Total: 2 * score}, {Impl: best, Total: score}},
			Best:  1,
		}
	}
	o := &bench.Outcome{Verification: &bench.SweepStats{Runs: []*bench.Verification{
		run(8, "", "ibcast-binomial-seg32k", 0.5),
		run(8, "congested", "ibcast-chain-seg32k", 0.7),
	}}}
	sc := guideline.Scenario{Platform: "whale-tcp", Procs: 8, Size: 262144}
	audit := &bench.Outcome{Guidelines: &guideline.Report{Registrations: []guideline.Registration{
		{Op: "ibcast", Scenario: sc, Chosen: core.MockIbcastScatterAllgather, Adopted: true, Evals: 66},
		{Op: "ialltoall", Scenario: sc, Chosen: "ialltoall-linear"}, // not adopted: not filed
	}}}
	path := filepath.Join(t.TempDir(), "h.json")
	hist, err := kb.Open(kb.StoreOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	better := kb.Record{Key: core.HistoryKey("ibcast", "crill", 8, 1024), Env: "chaos=congested#3", Winner: "kept", Score: 0.1}
	hist.Put(better)
	var diag bytes.Buffer
	if err := fileWinners(hist, path, append(winners(o), winners(audit)...), &diag); err != nil || diag.String() != "2 tuned winners filed in "+path+"\n" {
		t.Fatalf("fileWinners: error %v, said %q", err, diag.String())
	}
	file, err := kb.Open(kb.StoreOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	want := []kb.Record{
		{Key: core.HistoryKey("ibcast", "crill", 8, 1024), Winner: "ibcast-binomial-seg32k", Score: 0.5},
		better,
		{Key: core.HistoryKey("ibcast", "whale-tcp", 8, 262144), Winner: core.MockIbcastScatterAllgather, Evals: 66},
	}
	for _, w := range want {
		if got, ok := file.Lookup(w.Key, w.Env); !ok || got != w {
			t.Errorf("h.json under (%q, %q): %+v (found=%v), want %+v", w.Key, w.Env, got, ok, w)
		}
	}
	if file.Len() != len(want) {
		t.Errorf("h.json holds %d records, want %d", file.Len(), len(want))
	}
	if fft := winners(&bench.Outcome{FFT: &bench.FFTSweepStats{}}); fft != nil {
		t.Errorf("an FFT outcome yields %d records no command looks up", len(fft))
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

// sweep runs the command in dir and returns its exit status and what it
// printed.
func sweep(t *testing.T, dir, args string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], strings.Fields(args)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "SWEEP_AS_COMMAND=1")
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("sweep %s: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), o.String(), e.String()
}

// TestRefusals: a flag the run cannot honour is refused with one error line
// and exit status 1, before any simulation: a negative worker count (0 is
// GOMAXPROCS; -1 used to be too), -speculate or -history on a suite that
// runs no selector (the first used to be ignored, the second to run the
// whole suite before saying it had nothing to share), -trace on a suite that
// exports no trace (it used to leave an empty directory), a flag the
// guideline audit's unobserved sequential leaves cannot take, -chaos on the
// full guideline grid, which has its own clean and congested axis, and a
// -cache directory that is the next flag (what the old boolean -cache parses
// to), and -out on a figure suite, which prints tables only. The unknown
// suite makes a missing worker-count refusal fail fast on the wrong message.
func TestRefusals(t *testing.T) {
	for args, want := range map[string]string{
		"-jobs -1 -suite nonesuch":                  "worker count",
		"-speculate -suite fft":                     "runs no selection logic",
		"-history h.json -suite fft":                "-history: fft runs no selection logic",
		"-history missing/h.json -suite fig2 -fast": "no such file or directory",
		"-suite fig2 -cache -fast":                  "looks like a flag",
		"-trace t -suite verification -fast":        "-trace: verification exports no trace",
		"-observe -suite guidelines -fast":          "-observe: guidelines measures unobserved",
		"-data -suite guidelines -fast":             "-data: guidelines measures unobserved",
		"-shards 2 -suite guidelines -fast":         "-shards: guidelines measures unobserved",
		"-speculate -suite guidelines -fast":        "-speculate: guidelines measures unobserved",
		"-chaos congested -suite guidelines":        "-chaos: the full guidelines grid",
		"-suite fig3 -fast -out x.json":             "has no machine-readable summary",
	} {
		if code, _, stderr := sweep(t, t.TempDir(), args); code != 1 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, want) {
			t.Errorf("sweep %s: exit status %d, stderr %q; want exit status 1 and one line containing %q", args, code, stderr, want)
		}
	}
}

// TestCachedirGone: the store directory is the value of -cache; the separate
// -cachedir flag is gone and is refused as unknown.
func TestCachedirGone(t *testing.T) {
	if code, _, stderr := sweep(t, t.TempDir(), "-suite fig2 -fast -cachedir d"); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -cachedir") {
		t.Errorf("sweep -cachedir: exit status %d, stderr %q; want exit status 2 and an unknown-flag error", code, stderr)
	}
}

// TestShardsReachTheSpecs: -shards is laid over every scenario of a figure
// suite. Fig 3 prints the same tables at 2 and 4 shards, and they differ
// from the sequential engine's, whose timeline is another one.
func TestShardsReachTheSpecs(t *testing.T) {
	tables := map[string]string{}
	for _, shards := range []string{"", "-shards 2", "-shards 4"} {
		code, stdout, stderr := sweep(t, t.TempDir(), "-suite fig3 -fast -quiet "+shards)
		if code != 0 {
			t.Fatalf("sweep -suite fig3 -fast %s: exit status %d\n%s", shards, code, stderr)
		}
		tables[shards] = stdout
	}
	if tables["-shards 2"] != tables["-shards 4"] {
		t.Errorf("fig3 tables differ between 2 and 4 shards:\n%s\nvs\n%s", tables["-shards 2"], tables["-shards 4"])
	}
	if tables["-shards 2"] == tables[""] {
		t.Error("fig3 on 2 shards printed the sequential engine's tables: -shards did not reach the specs")
	}
}
