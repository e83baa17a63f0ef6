package core

import (
	"encoding/json"
	"math"
	"testing"
)

// stubStream is a deterministic CandidateRunner: candidate fn's iteration i
// costs base(fn)*(1 + small deterministic ripple). Separable over the fake
// set's attributes so the heuristic selectors stay on their happy paths.
func stubStream(costs []float64) CandidateRunner {
	return func(fn, rounds int) ([]float64, error) {
		s := make([]float64, rounds)
		for i := range s {
			s[i] = costs[fn] * (1 + 0.02*math.Sin(float64(fn*31+i*7)))
		}
		return s, nil
	}
}

// separableCosts gives fakeSet functions a cost that is the sum of their
// attribute values, so every selector family agrees on the minimum.
func separableCosts(fs *FunctionSet) []float64 {
	costs := make([]float64, len(fs.Fns))
	for i, f := range fs.Fns {
		c := 1e-4
		for _, v := range f.Attrs {
			c += 1e-5 * float64(v)
		}
		costs[i] = c
	}
	return costs
}

// TestSpeculativeMatchesSequential is the merge-correctness pin: for every
// supported inner selector, replaying the speculative streams must produce
// exactly the decision the same selector reaches when fed the same streams
// in-line, and the result must be byte-identical for any worker count.
func TestSpeculativeMatchesSequential(t *testing.T) {
	fs := fakeSet([]int{1, 2, 4}, []int{8, 16})
	costs := separableCosts(fs)
	run := stubStream(costs)
	const evals = 3
	for _, inner := range []string{"brute-force", "brute-force-mean", "attr-heuristic", "factorial-2k"} {
		spec1, err := Speculate(inner, fs, evals, 1, run)
		if err != nil {
			t.Fatalf("%s: %v", inner, err)
		}
		spec8, err := Speculate(inner, fs, evals, 8, run)
		if err != nil {
			t.Fatalf("%s workers=8: %v", inner, err)
		}

		// Sequential reference: the same inner selector fed the same streams
		// front to back, exactly as it would measure in-line.
		s, err := speculable(inner, fs, evals)
		if err != nil {
			t.Fatal(err)
		}
		rounds := s.rounds()
		streams := make([][]float64, len(fs.Fns))
		for fn := range streams {
			streams[fn], _ = run(fn, rounds)
		}
		seq, err := SelectorByName(inner, fs, evals)
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, len(fs.Fns))
		for {
			fn, decided := seq.Next()
			if decided {
				break
			}
			if pos[fn] >= len(streams[fn]) {
				t.Fatalf("%s: sequential reference exhausted candidate %d after %d rounds", inner, fn, rounds)
			}
			seq.Record(fn, streams[fn][pos[fn]])
			pos[fn]++
		}

		if spec1.Winner != seq.Winner() || spec1.Evals != seq.Evals() || spec1.Rounds != rounds {
			t.Fatalf("%s: speculative (winner=%d evals=%d rounds=%d) != sequential (winner=%d evals=%d rounds=%d)",
				inner, spec1.Winner, spec1.Evals, spec1.Rounds, seq.Winner(), seq.Evals(), rounds)
		}
		a1, _ := json.Marshal(spec1.Audit)
		a8, _ := json.Marshal(spec8.Audit)
		if string(a1) != string(a8) {
			t.Fatalf("%s: audit differs between 1 and 8 workers", inner)
		}
		if spec1.Winner != spec8.Winner {
			t.Fatalf("%s: winner differs between 1 and 8 workers", inner)
		}
		if got, want := len(auditEvents(spec1.Audit, "fork")), len(fs.Fns); got != want {
			t.Fatalf("%s: %d fork events, want %d", inner, got, want)
		}
		if got, want := len(auditEvents(spec1.Audit, "join")), len(fs.Fns); got != want {
			t.Fatalf("%s: %d join events, want %d", inner, got, want)
		}
	}
}

// TestSpeculativeRoundsBudgets pins the worst-case per-candidate budgets to
// the selectors' structure.
func TestSpeculativeRoundsBudgets(t *testing.T) {
	fs := fakeSet([]int{1, 2}, []int{8, 16}, []int{0, 1})
	cases := []struct {
		inner string
		want  int
	}{
		{"brute-force", 5},
		{"brute-force-mean", 5},
		{"attr-heuristic", 5 * 4}, // 3 attribute slices + final brute force
		{"factorial-2k", 10},      // corner screen + survivor brute force
	}
	for _, c := range cases {
		s, err := speculable(c.inner, fs, 5)
		if err != nil {
			t.Fatalf("%s: %v", c.inner, err)
		}
		if got := s.rounds(); got != c.want {
			t.Fatalf("speculable(%s).rounds() = %d, want %d", c.inner, got, c.want)
		}
	}
}

// TestSpeculativeRejectsAdaptive: adaptive selectors keep measuring after the
// decision, which a fixed per-fork budget cannot honor.
func TestSpeculativeRejectsAdaptive(t *testing.T) {
	fs := fakeSet([]int{1, 2})
	if _, err := Speculate("adaptive", fs, 3, 2, stubStream(separableCosts(fs))); err == nil {
		t.Fatal("speculative evaluation accepted an adaptive inner selector")
	}
	if _, err := speculable("adaptive", fs, 3); err == nil {
		t.Fatal("speculable accepted an adaptive inner selector")
	}
}

// TestSpeculativeName: "speculative+<inner>" splits into its inner name, and
// no selector that runs inside one world answers to it.
func TestSpeculativeName(t *testing.T) {
	if inner, ok := SpeculativeInner("speculative+attr-heuristic"); !ok || inner != "attr-heuristic" {
		t.Errorf("SpeculativeInner(speculative+attr-heuristic) = %q, %v", inner, ok)
	}
	if inner, ok := SpeculativeInner("adaptive+brute-force"); ok || inner != "adaptive+brute-force" {
		t.Errorf("SpeculativeInner(adaptive+brute-force) = %q, %v", inner, ok)
	}
	if _, err := SelectorByName("speculative+brute-force", fakeSet([]int{1, 2}), 2); err == nil {
		t.Error("SelectorByName resolved a speculative name")
	}
}

// TestCaptureNeverDecides: the fork-side logic must pin one implementation
// and measure forever, so StopWith keeps max-reducing on every rank.
func TestCaptureNeverDecides(t *testing.T) {
	c := NewCapture(3)
	for i := 0; i < 10; i++ {
		fn, decided := c.Next()
		if decided || fn != 3 {
			t.Fatalf("Capture.Next() = (%d,%v), want (3,false)", fn, decided)
		}
		c.Record(fn, float64(i))
	}
	if got := c.Samples(); len(got) != 10 || got[4] != 4 {
		t.Fatalf("Capture.Samples() = %v", got)
	}
}
