package core

import (
	"testing"

	"nbctune/internal/obs"
	"nbctune/internal/stats"
)

func auditSet(fns int) *FunctionSet {
	fs := &FunctionSet{Name: "test"}
	for i := 0; i < fns; i++ {
		fs.Fns = append(fs.Fns, &Function{Name: string(rune('a' + i))})
	}
	return fs
}

// auditEvents returns the audit's events of one kind, in order: how a reader
// of the artifact (EXPERIMENTS.md's walkthrough, these tests) queries it.
func auditEvents(a *obs.Audit, kind string) []obs.AuditEvent {
	var out []obs.AuditEvent
	for _, ev := range a.Events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// auditWinner returns the last decision the audit logged.
func auditWinner(t *testing.T, a *obs.Audit) int {
	t.Helper()
	ds := auditEvents(a, obs.AuditDecide)
	if len(ds) == 0 {
		t.Fatal("audit logged no decision")
	}
	return ds[len(ds)-1].Fn
}

// TestAuditReproducesBruteForceWinner replays the audit artifact by hand:
// the winner must be the argmin of the robust scores of the logged raw
// samples — the walkthrough EXPERIMENTS.md documents.
func TestAuditReproducesBruteForceWinner(t *testing.T) {
	fs := auditSet(3)
	sel := NewBruteForce(3, 2)
	a := AttachAudit(sel, fs)
	if a == nil {
		t.Fatal("AttachAudit returned nil for BruteForce")
	}
	times := map[int][]float64{0: {3.0, 3.1}, 1: {1.0, 1.2}, 2: {2.0, 2.1}}
	used := map[int]int{}
	for {
		fn, done := sel.Next()
		if done {
			break
		}
		sel.Record(fn, times[fn][used[fn]])
		used[fn]++
	}
	if sel.Winner() != 1 {
		t.Fatalf("selector winner = %d, want 1", sel.Winner())
	}
	// Re-derive from the audit alone.
	if w := auditWinner(t, a); w != sel.Winner() {
		t.Errorf("audit winner = %d, selector winner = %d", w, sel.Winner())
	}
	best, bestScore := -1, 0.0
	for fn := range fs.Fns {
		var samples []float64
		for _, ev := range auditEvents(a, obs.AuditSample) {
			if ev.Fn == fn {
				samples = append(samples, ev.Value)
			}
		}
		if len(samples) != 2 {
			t.Fatalf("fn %d: %d samples logged, want 2", fn, len(samples))
		}
		score := stats.RobustScore(samples)
		if best < 0 || score < bestScore {
			best, bestScore = fn, score
		}
	}
	if w := auditWinner(t, a); best != w {
		t.Errorf("hand-derived winner = %d, audit says %d", best, w)
	}
	// Estimates and the decision must be logged.
	var sawEstimate, sawDecide bool
	for _, ev := range a.Events {
		switch ev.Kind {
		case obs.AuditEstimate:
			sawEstimate = true
		case obs.AuditDecide:
			sawDecide = true
		}
	}
	if !sawEstimate || !sawDecide {
		t.Errorf("estimate=%v decide=%v events missing", sawEstimate, sawDecide)
	}
}

// TestAuditDoesNotChangeSelection runs the same measurement stream with and
// without an audit attached; the decisions must be identical.
func TestAuditDoesNotChangeSelection(t *testing.T) {
	fs := attrSetForTest(t)
	mk := func(attach bool) (Selector, *obs.Audit) {
		sel := NewAttrHeuristic(fs, 2)
		var a *obs.Audit
		if attach {
			a = AttachAudit(sel, fs)
		}
		t1 := 0.0
		for i := 0; ; i++ {
			fn, done := sel.Next()
			if done {
				break
			}
			// Deterministic synthetic cost: function index + small drift.
			t1 = float64(fn+1) + float64(i)*1e-6
			sel.Record(fn, t1)
			if i > 10000 {
				t.Fatal("selector did not converge")
			}
		}
		return sel, a
	}
	plain, _ := mk(false)
	audited, a := mk(true)
	if plain.Winner() != audited.Winner() {
		t.Errorf("audit changed the winner: %d vs %d", audited.Winner(), plain.Winner())
	}
	if plain.Evals() != audited.Evals() {
		t.Errorf("audit changed evals: %d vs %d", audited.Evals(), plain.Evals())
	}
	if w := auditWinner(t, a); w != audited.Winner() {
		t.Errorf("audit log winner %d != selector winner %d", w, audited.Winner())
	}
	// The heuristic must have logged at least one prune or phase event.
	var sawStructure bool
	for _, ev := range a.Events {
		if ev.Kind == obs.AuditPrune || ev.Kind == obs.AuditPhase {
			sawStructure = true
		}
	}
	if !sawStructure {
		t.Error("attr-heuristic audit has no prune/phase events")
	}
}

// attrSetForTest builds a 2x2 attributed function set.
func attrSetForTest(t *testing.T) *FunctionSet {
	t.Helper()
	fs := &FunctionSet{
		Name: "attr-test",
		AttrSet: &AttributeSet{Attrs: []Attribute{
			{Name: "alg", Values: []int{0, 1}},
			{Name: "seg", Values: []int{0, 1}},
		}},
	}
	for alg := 0; alg < 2; alg++ {
		for seg := 0; seg < 2; seg++ {
			fs.Fns = append(fs.Fns, &Function{
				Name:  string(rune('a'+alg)) + string(rune('0'+seg)),
				Attrs: []int{alg, seg},
			})
		}
	}
	return fs
}
