package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"nbctune/internal/core"
	"nbctune/internal/kb"
)

// TestGolden pins stdout and the -metrics artifact of five command lines,
// four captured before cmd/tune was rebuilt on the op catalogue and bench's
// rank program: the tuning loop's virtual times, the report and the selection
// audit must not move. The fifth, "verify", pins -verify's table of every
// fixed implementation against the tuned run. Refresh a pair only for a deliberate change of the
// simulated timeline: go run ./cmd/tune ARGS -metrics m.json > NAME.stdout.
func TestGolden(t *testing.T) {
	cases := map[string]string{
		"ialltoall":   "-op ialltoall -platform crill -np 32 -msg 131072",
		"ibcast_attr": "-op ibcast -selector attr-heuristic -np 16",
		"chaos":       "-op ialltoall -np 8 -msg 65536 -compute 0.005 -chaos congested -chaos-seed 3",
		"speculate":   "-op ialltoall -np 8 -msg 65536 -compute 0.005 -iters 5 -selector speculative+brute-force",
		"verify":      "-np 8 -iters 24 -verify",
	}
	golden, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, t.TempDir()) // the artifact path is echoed on stdout, so it must be the captured one
	for name, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(append(strings.Fields(args), "-metrics", "m.json"), &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
		}
		metrics, err := os.ReadFile("m.json")
		if err != nil {
			t.Fatal(err)
		}
		for file, got := range map[string][]byte{name + ".stdout": stdout.Bytes(), name + ".metrics.json": metrics} {
			want, err := os.ReadFile(filepath.Join(golden, file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("tune %s: output differs from testdata/%s:\n%s", args, file, got)
			}
		}
	}
}

// TestHistoryAcrossEnvironments: one -history file serves a scenario under
// several environments, as the tuned daemon does. A chaos run must not evict
// the clean winner (it did while the file held one entry per scenario), so
// after one cold run each, both environments replay their own winner.
func TestHistoryAcrossEnvironments(t *testing.T) {
	chdir(t, t.TempDir())
	clean := "-op ialltoall -np 8 -msg 65536 -compute 0.005 -history h.json"
	chaos := clean + " -chaos congested -chaos-seed 3"
	for i, step := range []struct {
		args string
		hit  bool
	}{{clean, false}, {chaos, false}, {clean, true}, {chaos, true}} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(step.args), &stdout, &stderr); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, stderr.Bytes())
		}
		if hit := strings.HasPrefix(stdout.String(), "history hit for "); hit != step.hit {
			t.Fatalf("run %d (tune %s): history hit = %v, want %v\n%s", i, step.args, hit, step.hit, stdout.Bytes())
		}
	}
}

// tune runs one command line and returns what it printed.
func tune(t *testing.T, args string) (stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	if err := run(strings.Fields(args), &o, &e); err != nil {
		t.Fatalf("tune %s: %v\n%s", args, err, e.Bytes())
	}
	return o.String(), e.String()
}

const kbScenario = "-op ialltoall -np 8 -msg 65536 -compute 0.005"

var kbScenarioKey = core.HistoryKey("ialltoall", "crill", 8, 65536)

// TestHistoryColdThenWarm: a cold tune -history learns, says so, and files
// its winner with the measurements it cost; the warm run replays exactly that
// winner after 0 measurements and leaves the file as it was.
func TestHistoryColdThenWarm(t *testing.T) {
	chdir(t, t.TempDir())
	args := kbScenario + " -history h.json"
	cold, _ := tune(t, args)
	h, err := kb.Open(kb.StoreOptions{SnapshotPath: "h.json"})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := h.Lookup(kbScenarioKey, "")
	if strings.Contains(cold, "history hit") || !ok || rec.Evals == 0 ||
		!strings.Contains(cold, "decision: "+rec.Winner+" after ") || !strings.Contains(cold, "winner stored in h.json ") {
		t.Fatalf("cold tune -history: h.json holds %+v (found=%v) after\n%s", rec, ok, cold)
	}
	before, err := os.ReadFile("h.json")
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := tune(t, args)
	if !strings.HasPrefix(warm, "history hit for ") || !strings.Contains(warm, "decision: "+rec.Winner+" after 0 measurements") {
		t.Fatalf("warm tune -history did not replay %s:\n%s", rec.Winner, warm)
	}
	if after, _ := os.ReadFile("h.json"); !bytes.Equal(after, before) {
		t.Errorf("a replayed winner rewrote the history file:\n%s", after)
	}
}

// TestOldHistoryFileRefused: a file in the format tune -history wrote before
// it was a kb snapshot is refused by version, never read as an empty history
// and overwritten. (Migration: delete it, or wrap its entries as
// {"version":1,"records":[{"key":…,"env":…,"winner":…}]}.)
func TestOldHistoryFileRefused(t *testing.T) {
	chdir(t, t.TempDir())
	old := `{"entries":{"` + kbScenarioKey + `":{"winner":"ialltoall-linear","evals":9}}}`
	if err := os.WriteFile("h.json", []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run(strings.Fields(kbScenario+" -history h.json"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unsupported version 0") {
		t.Fatalf("tune on a pre-snapshot history file: error %v, want the snapshot-version refusal", err)
	}
	if left, _ := os.ReadFile("h.json"); string(left) != old {
		t.Errorf("the refused file was rewritten:\n%s", left)
	}
}

// TestRecordedMockReplayed closes the audit -> kb -> tune loop: the mock the
// committed guideline report adopts for ibcast, once recorded, joins the op's
// set for the session and is replayed like any winner; the record stays. A
// recorded name that is no implementation of the op is reported, not silently
// re-learned.
func TestRecordedMockReplayed(t *testing.T) {
	chdir(t, t.TempDir())
	mock := kb.Record{Key: core.HistoryKey("ibcast", "crill", 8, 262144), Winner: core.MockIbcastScatterAllgather, Evals: 66}
	alien := kb.Record{Key: core.HistoryKey("iallgather", "crill", 8, 262144), Winner: core.MockIbcastScatterAllgather}
	st := kb.NewStore(kb.StoreOptions{SnapshotPath: "h.json"})
	st.Put(mock)
	st.Put(alien)
	if err := st.Flush(false); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile("h.json")
	if err != nil {
		t.Fatal(err)
	}

	stdout, stderr := tune(t, "-op ibcast -np 8 -msg 262144 -history h.json")
	if !strings.HasPrefix(stdout, "history hit for ") || !strings.Contains(stdout, "decision: "+mock.Winner+" after 0 measurements") || stderr != "" {
		t.Fatalf("recorded mock not replayed:\n%s\nstderr:\n%s", stdout, stderr)
	}
	if after, _ := os.ReadFile("h.json"); !bytes.Equal(after, before) {
		t.Errorf("replaying the mock rewrote the history file:\n%s", after)
	}

	stdout, stderr = tune(t, "-op iallgather -np 8 -msg 262144 -history h.json")
	if strings.Contains(stdout, "history hit") || !strings.Contains(stderr, "is not an implementation of iallgather") {
		t.Fatalf("a foreign recorded winner was not reported:\n%s\nstderr:\n%s", stdout, stderr)
	}
}

// TestSpeculateEveryOp: speculation is not limited to the ops it was first
// wired for; every catalogue op measures one world per candidate and commits
// a winner.
func TestSpeculateEveryOp(t *testing.T) {
	winner := regexp.MustCompile(`(?m)^winner: \S+ \(`)
	for _, op := range core.OpNames() {
		np := "8"
		if op == "neighborhood" {
			np = "16" // needs a square rank count
		}
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-op", op, "-np", np, "-selector", "speculative+brute-force"}, &stdout, &stderr); err != nil {
			t.Errorf("tune -op %s speculative: %v\n%s", op, err, stderr.Bytes())
		} else if !winner.Match(stdout.Bytes()) {
			t.Errorf("tune -op %s speculative printed no winner:\n%s", op, stdout.Bytes())
		}
	}
}

// TestSpeculateComposes: a speculative session is a run like any other — it
// writes a trace (of the committed-winner loop), and its -metrics artifact
// does not depend on the number of host threads its candidate pool runs on.
func TestSpeculateComposes(t *testing.T) {
	chdir(t, t.TempDir())
	if out, _ := tune(t, "-op ialltoall -np 32 -msg 65536 -compute 0.005 -iters 6 -selector speculative+brute-force -trace t.json"); !strings.Contains(out, "trace written to t.json") {
		t.Fatalf("no trace reported:\n%s", out)
	}
	if trace, err := os.ReadFile("t.json"); err != nil || !bytes.Contains(trace, []byte(`"traceEvents"`)) {
		t.Fatalf("t.json is not a trace (%d bytes, err %v)", len(trace), err)
	}
	// The candidate pool has GOMAXPROCS workers; the decision must not
	// depend on how many there are.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var pooled [][]byte
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		tune(t, "-op ialltoall -np 8 -msg 65536 -compute 0.005 -iters 5 -selector speculative+brute-force -metrics m.json")
		m, err := os.ReadFile("m.json")
		if err != nil {
			t.Fatal(err)
		}
		pooled = append(pooled, m)
	}
	if !bytes.Contains(pooled[0], []byte(`"kind": "sample"`)) {
		t.Fatalf("speculative audit holds no samples:\n%s", pooled[0])
	}
	if !bytes.Equal(pooled[0], pooled[1]) {
		t.Error("speculative tune -metrics differs between GOMAXPROCS 1 and 8")
	}
}

// TestRefusals: each unsupported combination is refused once, by the layer
// that cannot serve it, before anything is printed: run's error is the one
// line main prints before it exits 1, and stdout stays empty. A flag the set
// does not define or cannot parse is run's error too, which the flag set has
// printed to stderr and main exits 2 on, so the test binary survives it. A
// -history file in a directory that does not exist used to be refused only
// after the whole session, losing the winner it had learned, and a
// -chaos-seed with no -chaos profile to seed used to be ignored.
func TestRefusals(t *testing.T) {
	chdir(t, t.TempDir())
	for args, want := range map[string]string{
		"-op nonesuch":                              "unknown operation",
		"-op neighborhood -np 8":                    "square rank count",
		"-selector nonesuch":                        "unknown selector",
		"-evals 0":                                  "at least one measurement",
		"-compute -1":                               "non-negative and finite",
		"-msg -1024":                                "non-negative and finite",
		"-selector speculative+nonesuch":            "unknown selector",
		"-selector speculative+adaptive":            "adaptive selectors keep measuring",
		"-np 16 -msg 1152921504606846976":           "overflows",
		"-op ibcast -np 2 -msg 9223372036854775807": "segments",
		"-op ibcast -np 2 -msg 2147483648":          "overflows",
		"-np 16 -msg 134217728":                     "overflows",
		"-history missing/h.json":                   "no such file or directory",
		"-shards 2":                                 "flag provided but not defined: -shards",
		"-np x":                                     `invalid value "x" for flag -np`,
		"-chaos-seed 7":                             "-chaos-seed: no -chaos profile to seed",
		"-chaos off -chaos-seed 7":                  "-chaos-seed: no -chaos profile to seed",
	} {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields(args), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") || stdout.Len() != 0 {
			t.Errorf("tune %s: error %v after %d bytes of stdout, want one line containing %q and no output", args, err, stdout.Len(), want)
		}
	}
}

func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}
