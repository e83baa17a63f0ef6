package main

import (
	"os"
	"strings"
	"testing"

	"nbctune/internal/bench"
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
