package nbctune_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nbctune/internal/bench"
)

// citingDocs are the documents that send a reader to the code: the design,
// the package tour, the experiment log and the build-and-run notes (SKILL.md,
// in a hidden directory), as glob patterns; the test names each by its base
// name. ROADMAP.md names tests still to be written, so only its section
// citations are checked; CHANGES.md is history and perf/ the benchmark's own
// module.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".*/skills/verify/SKILL.md"}

// quotedCounts are the counts the docs quote that the code decides. Each
// phrase holds one %s, the value as the file spells it; a row fails when the
// file no longer says it.
var quotedCounts = []struct {
	file, phrase string
	value        func(t *testing.T) string
}{
	{"EXPERIMENTS.md", "-out results/sweep_summary.json` (%s scenarios;", scenarios("verification", true)},
	{"EXPERIMENTS.md", "or without `-fast` (%s scenarios, ", scenarios("verification", false)},
	{"EXPERIMENTS.md", "Measured (fast grid, %s scenarios ×", scenarios("verification", true)},
	{"EXPERIMENTS.md", "100%% (24/%s fast scenarios)", scenarios("verification", true)},
	{"EXPERIMENTS.md", "| full %s-scenario grid |", scenarios("verification", false)},
	{"EXPERIMENTS.md", "-out results/sweep_summary_fft.json` (%s scenarios)", scenarios("fft", true)},
	{"EXPERIMENTS.md", "or without `-fast` (%s scenarios, ", scenarios("fft", false)},
	{"EXPERIMENTS.md", "ADCL faster than LibNBC in 4/%s scenarios", scenarios("fft", true)},
	{"EXPERIMENTS.md", "| 4/%s fast scenarios (50%%) |", scenarios("fft", true)},
	{"EXPERIMENTS.md", "| full %s-scenario grid |", scenarios("fft", false)},
	{"EXPERIMENTS.md", "-out results/guideline_report.json # %s scenarios", scenarios("guidelines", true)},
	{"README.md", "-suite guidelines -fast # %s scenarios", scenarios("guidelines", true)},
	{"README.md", "-suite guidelines # %s scenarios", scenarios("guidelines", false)},
	{"README.md", "(%s flags over the two commands)", flags},
	{"DESIGN.md", "(`-fast`: %s scenarios, exactly one violation)", scenarios("guidelines", true)},
	{"SKILL.md", "-suite verification -fast -quiet # %s scenarios", scenarios("verification", true)},
	{"SKILL.md", "-suite fft -fast -quiet # %s scenarios", scenarios("fft", true)},
	{"SKILL.md", "without it the %s-scenario full grid", scenarios("guidelines", false)},
	{"SKILL.md", "verification -fast -history h.json` files the best fixed implementation of its %s scenarios", scenarios("verification", true)},
}

// TestDocsCiteWhatExists checks the facts the docs quote against the
// repository, reading files only: every test a doc names is declared, every
// DESIGN.md section a doc or a Go comment cites exists, every flag a doc
// spells on a sweep or tune command line is one that command declares, and
// every count in quotedCounts, and every scenario count any doc quotes, is
// one the code builds.
func TestDocsCiteWhatExists(t *testing.T) {
	read := func(file string) string {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// Texts are searched with whitespace runs folded to one space, so a
	// phrase may wrap anywhere.
	fold := func(text string) string { return strings.Join(strings.Fields(text), " ") }
	var names []string
	docs := map[string]string{}
	for _, pattern := range append(slices.Clip(citingDocs), "ROADMAP.md") {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) != 1 {
			t.Fatalf("want one file matching %s, have %v (%v)", pattern, files, err)
		}
		name := filepath.Base(files[0])
		names, docs[name] = append(names, name), fold(read(files[0]))
	}

	// Test names. A trailing * cites every name with that prefix.
	declared := declaredTests(t)
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	for _, f := range names[:len(citingDocs)] {
		for _, name := range cited.FindAllString(docs[f], -1) {
			prefix, isPrefix := strings.CutSuffix(name, "*")
			if !slices.ContainsFunc(declared, func(d string) bool { return d == name || isPrefix && strings.HasPrefix(d, prefix) }) {
				t.Errorf("%s cites %s, which no _test.go declares", f, name)
			}
		}
	}

	// Section citations: `DESIGN.md §N` and `§N "Label"` anywhere, and in
	// DESIGN.md itself every §N (the paper's sections are roman).
	sections := designSections(read("DESIGN.md"))
	citation := regexp.MustCompile(`(DESIGN\.md,? )?§(\d+)(?: "([^"]+)")?`)
	checkCitations := func(where, text string) {
		for _, m := range citation.FindAllStringSubmatch(text, -1) {
			n, label := m[2], m[3]
			if m[1] == "" && label == "" && where != "DESIGN.md" {
				continue
			}
			labels, ok := sections[n]
			if !ok {
				t.Errorf("%s cites DESIGN.md §%s, which has no `## %s.` heading", where, n, n)
			} else if label != "" && !slices.ContainsFunc(labels, func(l string) bool { return l == label || strings.HasPrefix(l, label+" ") }) {
				t.Errorf("%s cites DESIGN.md §%s %q, which is neither a ### heading nor a **bold.** lead of §%s", where, n, label, n)
			}
		}
	}
	for _, f := range names {
		checkCitations(f, docs[f])
	}
	comment := regexp.MustCompile(`\n\s*//`) // a comment continues across its lines
	for _, f := range moduleFiles(t, ".go") {
		checkCitations(f, fold(comment.ReplaceAllString(read(f), " ")))
	}

	// Command lines: `sweep -suite fig2 -fast` is the command word, then
	// flags, each with at most one value; the line ends at the first word
	// that neither is a flag nor follows one. -h prints the usage of both;
	// `go test ./cmd/tune -run X` passes its flags to go test.
	declaredFlags := commandFlags(t)
	commandLine := regexp.MustCompile(`(go test \S*)?\b(sweep|tune)((?: -[a-zA-Z][\w-]*(?: [^\s-]\S*)?)+)`)
	flagName := regexp.MustCompile(` -([a-zA-Z][\w-]*)`)
	for _, f := range names[:len(citingDocs)] {
		for _, m := range commandLine.FindAllStringSubmatch(docs[f], -1) {
			if m[1] != "" {
				continue
			}
			for _, fl := range flagName.FindAllStringSubmatch(m[3], -1) {
				if fl[1] != "h" && !slices.Contains(declaredFlags[m[2]], fl[1]) {
					t.Errorf("%s spells %q, but %s declares no -%s", f, m[0], m[2], fl[1])
				}
			}
		}
	}

	// Quoted counts.
	for _, row := range quotedCounts {
		if want := fmt.Sprintf(row.phrase, row.value(t)); !strings.Contains(docs[row.file], want) {
			t.Errorf("%s does not say %q", row.file, want)
		}
	}
	built := map[string]bool{}
	for _, name := range bench.SuiteNames() {
		for _, fast := range []bool{true, false} {
			built[scenarios(name, fast)(t)] = true
		}
	}
	quoted := regexp.MustCompile(`\b(\d+)[ -](?:fast |full )?scenarios?\b`)
	for _, f := range names[:len(citingDocs)] {
		for _, m := range quoted.FindAllStringSubmatch(docs[f], -1) {
			if !built[m[1]] {
				t.Errorf("%s quotes %q, but no suite of the catalogue has %s scenarios", f, m[0], m[1])
			}
		}
	}
}

// scenarios counts the scenarios `sweep -suite name` runs, with or without
// -fast.
func scenarios(name string, fast bool) func(t *testing.T) string {
	return func(t *testing.T) string {
		suites, err := bench.Suites(name, fast)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range suites {
			n += len(s.Micro) + len(s.FFT) + len(s.Guidelines)
		}
		return strconv.Itoa(n)
	}
}

// flags counts the command-line flags the binaries declare.
func flags(t *testing.T) string {
	n := 0
	for _, names := range commandFlags(t) {
		n += len(names)
	}
	return strconv.Itoa(n)
}

// commandFlags maps each binary, cmd/<name>, to the names of the flags its
// main.go declares, found by the pattern `make stat` counts them by.
func commandFlags(t *testing.T) map[string][]string {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`fl(?:ag)?\.(?:Bool|Int|Int64|Uint|String|Float64|Duration|Var)\((?:[^"()]*, )?"([^"]+)"`)
	declared := map[string][]string{}
	for _, f := range mains {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(f))
		for _, m := range flag.FindAllSubmatch(b, -1) {
			declared[cmd] = append(declared[cmd], string(m[1]))
		}
	}
	return declared
}

// declaredTests returns the name of every test, fuzz target and benchmark
// the module's _test.go files declare.
func declaredTests(t *testing.T) []string {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var names []string
	for _, f := range moduleFiles(t, "_test.go") {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(b, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}

// moduleFiles lists the files of this module ending in suffix, leaving out
// perf/ (a module of its own), testdata and hidden directories.
func moduleFiles(t *testing.T, suffix string) []string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "perf" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, suffix) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// designSections maps each `## N.` section of DESIGN.md to the labels a
// citation may name inside it: its ### headings and the **bold.** leads of
// its paragraphs and bullets.
func designSections(design string) map[string][]string {
	heading := regexp.MustCompile(`^## (\d+)\. `)
	bold := regexp.MustCompile(`\*\*([^*]+?)\.\*\*`)
	sections := map[string][]string{}
	n := ""
	for _, line := range strings.Split(design, "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			n = m[1]
			sections[n] = nil
			continue
		}
		if n == "" {
			continue
		}
		if label, ok := strings.CutPrefix(line, "### "); ok {
			sections[n] = append(sections[n], label)
		}
		for _, m := range bold.FindAllStringSubmatch(line, -1) {
			sections[n] = append(sections[n], m[1])
		}
	}
	return sections
}
