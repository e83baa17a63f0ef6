package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nbctune/internal/core"
)

// TestGolden pins stdout and the -metrics artifact of four command lines,
// captured before cmd/tune was rebuilt on the op catalogue and bench's rank
// program: the tuning loop's virtual times, the report and the selection
// audit must not move. Refresh a pair only for a deliberate change of the
// simulated timeline: go run ./cmd/tune ARGS -metrics m.json > NAME.stdout.
func TestGolden(t *testing.T) {
	cases := map[string]string{
		"ialltoall":   "-op ialltoall -platform crill -np 32 -msg 131072",
		"ibcast_attr": "-op ibcast -selector attr-heuristic -np 16",
		"chaos":       "-op ialltoall -np 8 -msg 65536 -compute 0.005 -chaos congested -chaos-seed 3",
		"speculate":   "-op ialltoall -np 8 -msg 65536 -compute 0.005 -iters 5 -speculate -spec-workers 2",
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

// TestShardsWithHistory: the history lookup happens once on the host, so it
// composes with the sharded engine; the second invocation replays the winner.
func TestShardsWithHistory(t *testing.T) {
	chdir(t, t.TempDir())
	args := strings.Fields("-op ialltoall -np 8 -msg 65536 -compute 0.005 -shards 2 -history h.json")
	var first, second, stderr bytes.Buffer
	if err := run(args, &first, &stderr); err != nil {
		t.Fatalf("first run: %v\n%s", err, stderr.Bytes())
	}
	if strings.Contains(first.String(), "history hit") {
		t.Fatalf("cold run reported a history hit:\n%s", first.Bytes())
	}
	if err := run(args, &second, &stderr); err != nil {
		t.Fatalf("second run: %v\n%s", err, stderr.Bytes())
	}
	if !strings.HasPrefix(second.String(), "history hit for ") || !strings.Contains(second.String(), "selector fixed") {
		t.Fatalf("warm run did not replay the stored winner:\n%s", second.Bytes())
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

// TestSpeculateEveryOp: -speculate is not limited to the ops it was first
// wired for; every catalogue op snapshots, forks one world per candidate and
// commits a winner.
func TestSpeculateEveryOp(t *testing.T) {
	winner := regexp.MustCompile(`(?m)^winner: \S+ \(`)
	for _, op := range core.OpNames() {
		np := "8"
		if op == "neighborhood" {
			np = "16" // needs a square rank count
		}
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-op", op, "-np", np, "-speculate", "-spec-workers", "2"}, &stdout, &stderr); err != nil {
			t.Errorf("tune -op %s -speculate: %v\n%s", op, err, stderr.Bytes())
		} else if !winner.Match(stdout.Bytes()) {
			t.Errorf("tune -op %s -speculate printed no winner:\n%s", op, stdout.Bytes())
		}
	}
}

// TestRefusals: each unsupported combination is refused once, by the layer
// that cannot serve it, and tune reports that layer's message.
func TestRefusals(t *testing.T) {
	for args, want := range map[string]string{
		"-op nonesuch":                 "unknown operation",
		"-op neighborhood -np 8":       "square rank count",
		"-selector nonesuch":           "unknown selector",
		"-shards 2 -chaos congested":   "not supported under PDES",
		"-shards 2 -op ialltoall-prim": "not supported under PDES",
		"-shards 2 -speculate":         "do not support PDES",
		"-speculate -trace t.json":     "-speculate does not support -trace",
		"-shards 0":                    "invalid -shards",
	} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(args), &stdout, &stderr); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("tune %s: error %v, want one containing %q", args, err, want)
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
