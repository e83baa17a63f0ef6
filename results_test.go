package nbctune_test

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// committedResults are the files under results/ that tier-1 regenerates,
// each row with the one command that writes its files, spelled as
// EXPERIMENTS.md spells it: run from the repository root, it rewrites the
// committed files. cached marks the rows also run with -cache, into an empty
// store and then served from it: the guideline audit's, leaves and adoption
// rounds alike, and the §IV-B sweep's, one job per (scenario, flavor).
var committedResults = []struct {
	files   []string
	command string
	cached  bool
}{
	{[]string{"results/sweep_summary.json"}, "go run ./cmd/sweep -suite verification -fast -observe -out results/sweep_summary.json", false},
	{[]string{"results/sweep_summary_fft.json"}, "go run ./cmd/sweep -suite fft -fast -observe -out results/sweep_summary_fft.json", true},
	{[]string{"results/guideline_report.json"}, "go run ./cmd/sweep -suite guidelines -fast -out results/guideline_report.json", true},
	{[]string{"results/microbench.txt", "results/microbench.json"}, "go run ./cmd/sweep -suite figs-micro -fast -out results/microbench.json > results/microbench.txt", false},
	{[]string{"results/e13_drift_audit.json"}, "go run ./cmd/tune -op ibcast -platform crill -np 16 -msg 2097152 -compute 0.002 -progress 5 -selector adaptive+brute-force -evals 2 -iters 200 -chaos regime-shift -chaos-seed 1 -metrics results/e13_drift_audit.json", false},
	{[]string{"results/e15_audit_np64.json"}, "go run ./cmd/tune -op ibcast-scalable -platform bgp-16k -np 64 -msg 262144 -compute 0.05 -progress 4 -metrics results/e15_audit_np64.json", false},
}

// notRegenerated are the committed files too slow for tier-1, each with
// what still guards it:
//   - results/fftbench.txt and results/fftbench.json (one run of sweep
//     -suite figs-fft -fast, ~60 s): `make e2e` cmps both, and
//     internal/bench's TestFFTFlavorRowsMatchCommitted reproduces one
//     fftbench.txt row per flavor;
//   - results/scale_summary.json: the full scale grid, minutes;
//   - results/e15_audit_np4096.* (~23 s): internal/bench's
//     TestE15AuditArtifactIntegrity keeps the head, the digest and the
//     compressed audit consistent.
var notRegenerated = []string{"results/fftbench.*", "results/scale_summary.json", "results/e15_audit_np4096.*"}

// TestCommittedResults runs the command behind every row of
// committedResults in a fresh directory and compares what it wrote with the
// committed file, so a change of the simulated timeline fails here once per
// file it moves, naming the file and its command. The rows are also the
// documentation: EXPERIMENTS.md must spell every command, and every file
// under results/ must be a row or one of notRegenerated.
func TestCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/sweep and cmd/tune and regenerates results/")
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	// A command may continue over `\`-newlines and wrap in prose.
	spelled := strings.Join(strings.Fields(strings.ReplaceAll(string(doc), "\\\n", " ")), " ")
	committed, err := filepath.Glob("results/*")
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, row := range committedResults {
		for _, file := range row.files {
			covered[file] = true
		}
		if !strings.Contains(spelled, row.command) {
			t.Errorf("EXPERIMENTS.md does not spell the command that writes %s: %s", strings.Join(row.files, " and "), row.command)
		}
	}
	for _, file := range committed {
		for _, pattern := range notRegenerated {
			if ok, _ := filepath.Match(pattern, file); ok {
				covered[file] = true
			}
		}
		if !covered[file] {
			t.Errorf("%s is committed but is neither regenerated here nor listed in notRegenerated", file)
		}
	}

	bin := buildCommands(t)
	for _, row := range committedResults {
		check := func(extra ...string) string {
			got, stderr := runDocumented(t, bin, row.command, row.files, extra...)
			for i, file := range row.files {
				if want, err := os.ReadFile(file); err != nil || !bytes.Equal(got[i], want) {
					t.Errorf("%s differs from what %s writes (%v)", file, strings.Join(append([]string{row.command}, extra...), " "), err)
				}
			}
			return stderr
		}
		check()
		if row.cached {
			store := t.TempDir()
			check("-cache", store)
			jobs, adoptions := 0, 0
			for _, line := range strings.Split(check("-cache", store), "\n") {
				if !strings.HasPrefix(line, "[") {
					continue
				}
				jobs++
				if !strings.Contains(line, " cached eta=") {
					t.Errorf("%s -cache: a run on the store it just wrote simulated again: %s", row.command, line)
				}
				if strings.Contains(line, " adopt=") {
					adoptions++
				}
			}
			if jobs == 0 {
				t.Errorf("%s -cache: the warm run printed no progress line", row.command)
			}
			if adoptions == 0 && strings.Contains(row.command, "-suite guidelines") {
				t.Errorf("%s -cache: no adoption round went through the runner", row.command)
			}
		}
	}
}

// runDocumented runs a command spelled `go run ./cmd/NAME ARGS [> FILE]`
// with the binary built in bin, in a fresh directory holding an empty
// results/, and returns the contents of files there and what the command
// printed on stderr.
func runDocumented(t *testing.T, bin, command string, files []string, extra ...string) ([][]byte, string) {
	t.Helper()
	fields := strings.Fields(command)
	if len(fields) < 3 || fields[0] != "go" || fields[1] != "run" || !strings.HasPrefix(fields[2], "./cmd/") {
		t.Fatalf("%q is not a go run ./cmd/NAME command", command)
	}
	args := append(fields[3:], extra...)
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout io.Writer = io.Discard
	if i := slices.Index(args, ">"); i >= 0 {
		f, err := os.Create(filepath.Join(dir, args[i+1]))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		stdout, args = f, append(args[:i], args[i+2:]...)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, strings.TrimPrefix(fields[2], "./cmd/")), args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: %v\n%s", command, err, stderr.Bytes())
	}
	got := make([][]byte, len(files))
	for i, file := range files {
		var err error
		if got[i], err = os.ReadFile(filepath.Join(dir, file)); err != nil {
			t.Fatalf("%s wrote no %s: %v", command, file, err)
		}
	}
	return got, stderr.String()
}

// buildCommands builds cmd/sweep and cmd/tune into a scratch directory and
// returns it.
func buildCommands(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/sweep", "./cmd/tune").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
