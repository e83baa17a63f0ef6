package core

import (
	"strings"
	"testing"
)

func TestReporterInterfaces(t *testing.T) {
	fs := fakeSet([]int{0, 1}, []int{10, 20})
	for _, sel := range []Selector{
		NewBruteForce(len(fs.Fns), 2),
		NewAttrHeuristic(fs, 2),
		NewFactorial2K(fs, 2),
	} {
		rep, ok := sel.(Reporter)
		if !ok {
			t.Fatalf("%s does not implement Reporter", sel.Name())
		}
		// Drive to completion with a simple cost oracle.
		for i := 0; i < 10000; i++ {
			fn, decided := sel.Next()
			if decided {
				break
			}
			sel.Record(fn, float64(fn+1))
		}
		scores := rep.Scores()
		if len(scores) == 0 {
			t.Fatalf("%s reported no scores", sel.Name())
		}
		for fn, s := range scores {
			if s <= 0 {
				t.Fatalf("%s: nonpositive score for fn %d", sel.Name(), fn)
			}
			if len(rep.Samples(fn)) == 0 {
				t.Fatalf("%s: no samples for scored fn %d", sel.Name(), fn)
			}
		}
	}
}

func TestTuningReportContents(t *testing.T) {
	clock := 0.0
	now := func() float64 { return clock }
	fs := clockFns(&clock, 3.0, 1.0)
	req := MustRequest(fs, NewBruteForce(2, 2), now)
	// Mid-learning report.
	runOnce(req)
	mid := TuningReport(req)
	if !strings.Contains(mid, "still learning") {
		t.Fatalf("mid-learning report:\n%s", mid)
	}
	for i := 0; i < 6; i++ {
		runOnce(req)
	}
	rep := TuningReport(req)
	for _, want := range []string{"impl1", "impl0", "decision: impl1", "brute-force", "clockset"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// The winner (impl1, cost 1.0) must rank first.
	lines := strings.Split(rep, "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, " 1. ") && !strings.Contains(l, "impl1") {
			t.Fatalf("ranking wrong:\n%s", rep)
		}
	}
}

func TestTuningReportFixedSelector(t *testing.T) {
	clock := 0.0
	now := func() float64 { return clock }
	fs := clockFns(&clock, 1.0)
	req := MustRequest(fs, &FixedSelector{Fn: 0}, now)
	runOnce(req)
	rep := TuningReport(req)
	if !strings.Contains(rep, "no measurements") {
		t.Fatalf("fixed-selector report:\n%s", rep)
	}
}
