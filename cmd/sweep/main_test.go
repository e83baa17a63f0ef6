package main

import (
	"bytes"
	"encoding/json"
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

// TestFigureOut: -out writes a figure suite's rows, one per scenario, each
// with one run per implementation whose total is the table's total_s.
func TestFigureOut(t *testing.T) {
	dir := t.TempDir()
	code, text, stderr := sweep(t, dir, "-suite fig3 -fast -quiet -out f.json")
	if code != 0 {
		t.Fatalf("sweep -suite fig3 -fast -out f.json: exit status %d\n%s", code, stderr)
	}
	var sum bench.SweepSummary
	readJSON(t, filepath.Join(dir, "f.json"), &sum)
	var totals []string
	for _, row := range sum.Rows {
		for _, r := range row.Runs {
			totals = append(totals, bench.Sec(r.Total))
		}
	}
	var column []string
	for _, line := range strings.Split(text, "\n")[3:] { // title, header, rule
		if f := strings.Fields(line); len(f) == 4 {
			column = append(column, f[2])
		}
	}
	if sum.Suite != "fig3" || len(sum.Rows) != 2 || len(totals) != 6 || strings.Join(totals, " ") != strings.Join(column, " ") {
		t.Errorf("f.json: suite %q, %d rows, run totals %v; want fig3, 2 rows and the table's total_s column %v", sum.Suite, len(sum.Rows), totals, column)
	}
}

// TestBundleOut: -out on a bundle writes every member's summary, in order,
// in one file.
func TestBundleOut(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := sweep(t, dir, "-suite figs-micro -fast -quiet -out b.json"); code != 0 {
		t.Fatalf("sweep -suite figs-micro -fast -out b.json: exit status %d\n%s", code, stderr)
	}
	var b bench.BundleSummary
	readJSON(t, filepath.Join(dir, "b.json"), &b)
	members, _ := bench.Suites("figs-micro", true)
	if b.Bundle != "figs-micro" || len(b.Suites) != len(members) {
		t.Fatalf("b.json: bundle %q with %d suites, want figs-micro with %d", b.Bundle, len(b.Suites), len(members))
	}
	for i, m := range members {
		if s := b.Suites[i]; s.Suite != m.Name || len(s.Rows) != len(m.Micro) {
			t.Errorf("b.json suite %d: %q with %d rows, want %q with %d", i, s.Suite, len(s.Rows), m.Name, len(m.Micro))
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		t.Fatal(err)
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
// verification row, with its score, and every mock a guideline audit
// adopted, with the evaluations that cost, under the key and environment tune
// -history looks up, into a file kb.Open reads back; a stored better score
// keeps its record, and a registration the audit did not adopt is not filed.
// A row measured under block placement is filed where tune, which places
// ranks cyclically, never looks. A suite whose decisions no command looks up
// — the 3D-FFT sweep — yields no records (and is refused before it runs;
// TestRefusals).
func TestShareKB(t *testing.T) {
	row := func(plat, chaos, placement, best string, score float64) bench.SummaryRow {
		return bench.SummaryRow{
			Platform: plat, Procs: 8, Op: "ibcast", Size: 1024, Chaos: chaos, ChaosSeed: 3, Placement: placement,
			Best: best, BestTotal: score, Correct: map[string]bool{"brute-force": true},
		}
	}
	o := &bench.Outcome{Summary: &bench.SweepSummary{Rows: []bench.SummaryRow{
		row("crill", "", "", "ibcast-binomial-seg32k", 0.5),
		row("crill", "congested", "", "ibcast-chain-seg32k", 0.7),
		row("bgp", "", "block", "ibcast-linear-seg32k", 0.3),
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
	if err := fileWinners(hist, path, append(winners(o), winners(audit)...), &diag); err != nil || diag.String() != "3 tuned winners filed in "+path+"\n" {
		t.Fatalf("fileWinners: error %v, said %q", err, diag.String())
	}
	file, err := kb.Open(kb.StoreOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	want := []kb.Record{
		{Key: core.HistoryKey("ibcast", "crill", 8, 1024), Winner: "ibcast-binomial-seg32k", Score: 0.5},
		better,
		{Key: core.HistoryKey("ibcast", "bgp", 8, 1024), Env: "torus3d|placement=block", Winner: "ibcast-linear-seg32k", Score: 0.3},
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
	if _, ok := file.Lookup(core.HistoryKey("ibcast", "bgp", 8, 1024), core.EnvFingerprint("torus3d", "", 0)); ok {
		t.Error("a winner tuned under block placement answers tune's cyclic lookup")
	}
	fft := (&bench.FFTSweepStats{Rows: [][2]bench.FFTResult{{{Spec: bench.FFTSpec{Platform: platform.Platform{Name: "crill"}}}, {}}}}).Summary()
	if recs := winners(&bench.Outcome{Summary: fft}); recs != nil {
		t.Errorf("an FFT outcome yields %d records no command looks up", len(recs))
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
// GOMAXPROCS; -1 used to be too), -history on a suite that runs no selector
// (it used to run the whole suite before saying it had nothing to share),
// -trace on a suite that exports no trace (it used to leave an empty
// directory), a flag the guideline audit's unobserved leaves cannot take,
// a -cache directory that is the next flag (what the old boolean -cache
// parses to), and a -chaos-seed with no -chaos profile to seed (it used to
// be ignored). The unknown suite makes a missing worker-count refusal fail
// fast on the wrong message.
func TestRefusals(t *testing.T) {
	for args, want := range map[string]string{
		"-jobs -1 -suite nonesuch":                  "worker count",
		"-history h.json -suite fft":                "-history: fft runs no selection logic",
		"-history missing/h.json -suite fig2 -fast": "no such file or directory",
		"-suite fig2 -cache -fast":                  "looks like a flag",
		"-trace t -suite verification -fast":        "-trace: verification exports no trace",
		"-observe -suite guidelines -fast":          "-observe: guidelines measures unobserved",
		"-data -suite guidelines -fast":             "-data: guidelines measures unobserved",
		"-chaos-seed 7 -suite fig2 -fast":           "-chaos-seed: no -chaos profile to seed",
		"-chaos off -chaos-seed 7 -suite fft -fast": "-chaos-seed: no -chaos profile to seed",
	} {
		if code, _, stderr := sweep(t, t.TempDir(), args); code != 1 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, want) {
			t.Errorf("sweep %s: exit status %d, stderr %q; want exit status 1 and one line containing %q", args, code, stderr, want)
		}
	}
}

// TestCachedirGone: the store directory is the value of -cache; the separate
// -cachedir flag is gone and is refused as unknown.
func TestCachedirGone(t *testing.T) {
	unknownFlag(t, "cachedir", "-suite fig2 -fast -cachedir d")
}

// TestShardsGone: every command runs on the one sequential engine, so the
// -shards flag that switched to the sharded one is refused as unknown.
func TestShardsGone(t *testing.T) {
	unknownFlag(t, "shards", "-suite fig2 -fast -shards 2")
}

// TestSpeculateGone: speculation is a selector name (speculative+<inner>,
// tune -selector), so the -speculate flag that prefixed a suite's selectors
// is refused as unknown.
func TestSpeculateGone(t *testing.T) {
	unknownFlag(t, "speculate", "-suite fig2 -fast -speculate")
}

// unknownFlag checks that sweep args exits with status 2 on the unknown flag
// name, as the flag package refuses one.
func unknownFlag(t *testing.T, name, args string) {
	t.Helper()
	if code, _, stderr := sweep(t, t.TempDir(), args); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -"+name) {
		t.Errorf("sweep %s: exit status %d, stderr %q; want exit status 2 and an unknown-flag error", args, code, stderr)
	}
}

// TestGuidelineChaos: -chaos and -chaos-seed reach every guideline scenario
// through the override every suite shares, the smoke grid here as the full
// one: every finding is judged on the named machine and seed. -chaos-seed
// without -chaos is refused and writes nothing (it used to leave the
// scenarios clean under the catalogue's seed, and before that to rewrite a
// clean scenario's seed).
func TestGuidelineChaos(t *testing.T) {
	dir := t.TempDir()
	const args = "-suite guidelines -fast -quiet -out r.json "
	if code, _, stderr := sweep(t, dir, args+"-chaos-seed 7"); code != 1 || !strings.Contains(stderr, "-chaos-seed: no -chaos profile") {
		t.Errorf("sweep %s-chaos-seed 7: exit status %d, stderr %q; want exit status 1 and a -chaos-seed refusal", args, code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "r.json")); !os.IsNotExist(err) {
		t.Errorf("a refused run left r.json (%v)", err)
	}
	if code, _, stderr := sweep(t, dir, args+"-chaos congested -chaos-seed 7"); code != 0 {
		t.Fatalf("sweep %s-chaos congested -chaos-seed 7: exit status %d\n%s", args, code, stderr)
	}
	var rep guideline.Report
	readJSON(t, filepath.Join(dir, "r.json"), &rep)
	if len(rep.Findings) == 0 {
		t.Fatal("r.json has no findings")
	}
	for _, f := range rep.Findings {
		if f.Scenario.Chaos != "congested" || f.Scenario.ChaosSeed != 7 {
			t.Errorf("finding %s on %s has chaos %q seed %d, want congested seed 7", f.Guideline, f.Scenario, f.Scenario.Chaos, f.Scenario.ChaosSeed)
		}
	}
}
