package core

import (
	"math"
	"testing"

	"nbctune/internal/kb"
	"nbctune/internal/mpi"
	"nbctune/internal/obs"
)

// driftHarness runs a Request+Timer loop over two implementations whose
// region costs can be changed mid-run — the minimal model of environmental
// drift. Costs are read per iteration from the costs slice.
type driftHarness struct {
	clock   float64
	costs   []float64
	req     *Request
	timer   *Timer
	runIter func()
}

func newDriftHarness(t *testing.T, sel Selector, costs ...float64) *driftHarness {
	t.Helper()
	h := &driftHarness{costs: costs}
	now := func() float64 { return h.clock }
	fs := &FunctionSet{Name: "driftset"}
	var pending float64
	for i := range costs {
		i := i
		fs.Fns = append(fs.Fns, &Function{
			Name:  "impl" + itoa(i),
			Start: func() Started { pending = h.costs[i]; return nil },
		})
	}
	h.req = MustRequest(fs, sel, now)
	h.timer = MustTimer(now, h.req)
	h.runIter = func() {
		h.timer.Start()
		h.req.Init()
		h.clock += pending // the region cost depends on the implementation
		h.req.Wait()
		h.timer.Stop()
	}
	return h
}

func (h *driftHarness) run(n int) {
	for i := 0; i < n; i++ {
		h.runIter()
	}
}

func TestAdaptiveRetunesWhenWinnerDegrades(t *testing.T) {
	sel := NewAdaptive(func() Selector { return NewBruteForce(2, 3) })
	h := newDriftHarness(t, sel, 1.0, 2.0)
	au := AttachAudit(sel, h.req.FunctionSet())

	h.run(7) // learning (2 impls x 3 evals) + the Init that latches the decision
	if !h.req.Decided() || sel.Winner() != 0 {
		t.Fatalf("initial tuning picked %d (decided=%v), want 0", sel.Winner(), h.req.Decided())
	}

	h.run(2 * driftWindow) // stable monitoring: two full windows, no drift
	if sel.retunes != 0 {
		t.Fatalf("retuned %d times in a stable environment", sel.retunes)
	}

	// The environment shifts: the committed winner becomes 3x slower while
	// the loser improves. The next full window departs the baseline.
	h.costs[0], h.costs[1] = 3.0, 0.5
	h.run(driftWindow + 6 + 1) // one drift window + relearn + first monitored lap
	if sel.retunes != 1 {
		t.Fatalf("retunes = %d, want 1", sel.retunes)
	}
	if sel.Winner() != 1 {
		t.Fatalf("post-drift winner = %d, want 1", sel.Winner())
	}
	if drifts, retunes := len(auditEvents(au, obs.AuditDrift)), len(auditEvents(au, obs.AuditRetune)); drifts != 1 || retunes != 1 {
		t.Fatalf("audit drift/retune counts = %d/%d, want 1/1", drifts, retunes)
	}
	// The audit's last decision (inner selector's Decide) names the new winner.
	if w := auditWinner(t, au); w != 1 {
		t.Fatalf("audit winner = %d, want 1", w)
	}
}

func TestAdaptiveRetunesWhenEnvironmentImproves(t *testing.T) {
	// Drift in the *good* direction must also re-open measurement: when the
	// whole machine speeds up, a different implementation may now be best.
	sel := NewAdaptive(func() Selector { return NewBruteForce(2, 3) })
	h := newDriftHarness(t, sel, 2.0, 3.0)
	h.run(6)
	if sel.Winner() != 0 {
		t.Fatalf("initial winner = %d, want 0", sel.Winner())
	}
	h.costs[0], h.costs[1] = 0.9, 0.2 // everything faster, and impl1 now best
	h.run(driftWindow + 6)
	if sel.retunes != 1 || sel.Winner() != 1 {
		t.Fatalf("retunes=%d winner=%d, want 1/1", sel.retunes, sel.Winner())
	}
}

func TestAdaptiveStableWithoutDrift(t *testing.T) {
	sel := NewAdaptive(func() Selector { return NewBruteForce(3, 2) })
	h := newDriftHarness(t, sel, 2.0, 1.0, 3.0)
	h.run(100)
	if sel.retunes != 0 {
		t.Fatalf("spurious retunes: %d", sel.retunes)
	}
	if sel.Winner() != 1 {
		t.Fatalf("winner = %d, want 1", sel.Winner())
	}
	if got, want := sel.Evals(), 6; got != want {
		t.Fatalf("evals = %d, want %d (one tuning round only)", got, want)
	}
}

func TestAdaptiveSmallFluctuationsTolerated(t *testing.T) {
	// A drift below the departure factor must not trigger a re-tune.
	sel := NewAdaptive(func() Selector { return NewBruteForce(2, 3) })
	h := newDriftHarness(t, sel, 1.0, 2.0)
	h.run(6)
	h.costs[0] = 1.3 // 1.3x baseline < 1.5x factor
	h.run(40)
	if sel.retunes != 0 {
		t.Fatalf("retuned on sub-threshold fluctuation (%d times)", sel.retunes)
	}
}

func TestAdaptiveEvalsAccumulateAcrossRounds(t *testing.T) {
	sel := NewAdaptive(func() Selector { return NewBruteForce(2, 3) })
	h := newDriftHarness(t, sel, 1.0, 2.0)
	h.run(6)
	h.costs[0] = 5.0
	h.run(driftWindow + 6)
	if got, want := sel.Evals(), 12; got != want {
		t.Fatalf("evals = %d, want %d (two rounds of 6)", got, want)
	}
}

func TestSelectorByNameAdaptiveVariants(t *testing.T) {
	fs := fakeSet([]int{0, 1}, []int{0, 1})
	for _, name := range []string{"adaptive", "adaptive+brute-force", "adaptive+attr-heuristic", "adaptive+factorial-2k"} {
		s, err := SelectorByName(name, fs, 2)
		if err != nil {
			t.Fatalf("SelectorByName(%q): %v", name, err)
		}
		if _, ok := s.(*Adaptive); !ok {
			t.Fatalf("SelectorByName(%q) = %T, want *Adaptive", name, s)
		}
	}
	if _, err := SelectorByName("adaptive+nope", fs, 2); err == nil {
		t.Fatal("bad inner selector name did not error")
	}
	s, err := SelectorByName("brute-force-mean", fs, 2)
	if err != nil {
		t.Fatalf("brute-force-mean: %v", err)
	}
	if b, ok := s.(*Search); !ok || b.final.score0 == nil {
		t.Fatalf("brute-force-mean did not install a custom score (got %T)", s)
	}
}

func TestHistoryEnvInvalidation(t *testing.T) {
	h := kb.NewStore(kb.StoreOptions{})
	key := HistoryKey("ibcast", "crill", 16, 1<<21)
	cleanEnv := EnvFingerprint("flat", "", 0)
	chaosEnv := EnvFingerprint("flat", "regime-shift", 42)
	if cleanEnv == chaosEnv {
		t.Fatal("clean and chaos fingerprints collide")
	}
	h.Put(kb.Record{Key: key, Env: chaosEnv, Winner: "impl0"})

	// A different seed of the same profile is a different environment.
	otherSeed := EnvFingerprint("flat", "regime-shift", 43)

	// SelectorWithHistory falls back to the learning selector on staleness.
	fs := &FunctionSet{Name: "f", Fns: []*Function{
		{Name: "impl0", Start: func() Started { return nil }},
	}}
	fb := NewBruteForce(1, 1)
	for _, stale := range []string{cleanEnv, otherSeed} {
		if sel, hit := SelectorWithHistory(h, key, stale, fs, fb); hit || sel != Selector(fb) {
			t.Fatalf("entry tuned under %q answered a lookup under %q instead of falling back to learning", chaosEnv, stale)
		}
	}
	sel, hit := SelectorWithHistory(h, key, chaosEnv, fs, fb)
	if !hit {
		t.Fatal("matching entry did not hit")
	}
	if f, ok := sel.(*FixedSelector); !ok || f.Fn != 0 {
		t.Fatalf("hit returned %T", sel)
	}
}

// TestAdaptiveDecidesBeforeAnySample: on a communicator that is not a power
// of two, iallreduce is a one-function set, so attr-heuristic decides before
// any sample is recorded. Committing that decision scores a function with no
// samples: it must leave the baseline uncalibrated, not panic.
func TestAdaptiveDecidesBeforeAnySample(t *testing.T) {
	onEveryRank(t, 3, func(c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		fs, err := mustOp(t, "iallreduce").Set(c, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if len(fs.Fns) != 1 {
			t.Errorf("iallreduce on 3 ranks has %d functions, want 1", len(fs.Fns))
			return
		}
		s, err := SelectorByName("adaptive+attr-heuristic", fs, 1)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 4; i++ {
			fn, decided := s.Next()
			if fn != 0 || !decided {
				t.Errorf("Next() = %d, %v; want 0, true", fn, decided)
			}
			s.Record(fn, 1e-3)
		}
		if b := s.(*Adaptive).baseline; !math.IsNaN(b) {
			t.Errorf("baseline = %g, want NaN (no tuning-time samples)", b)
		}
	})
}
