package bench

import (
	"bytes"
	"testing"

	"nbctune/internal/platform"
)

// TestSpeculativeWorkerCountInvariant is the acceptance pin of speculative
// evaluation at the bench layer: the entire speculative result — decision,
// audit trail, execution-phase timing, per-candidate virtual costs — must be
// byte-identical whether the candidates ran on one worker or many.
func TestSpeculativeWorkerCountInvariant(t *testing.T) {
	spec := smallSpec(t)
	for _, sel := range []string{"brute-force", "attr-heuristic"} {
		r1, err := RunSpeculative(spec, sel, 1)
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		r8, err := RunSpeculative(spec, sel, 8)
		if err != nil {
			t.Fatalf("%s workers=8: %v", sel, err)
		}
		b1, b8 := encode(t, r1), encode(t, r8)
		if !bytes.Equal(b1, b8) {
			t.Fatalf("%s: speculative result depends on worker count:\n%s\nvs\n%s", sel, b1, b8)
		}
		if r1.Result.Winner == "" {
			t.Fatalf("%s: no winner committed", sel)
		}
		if !bytes.Contains(b1, []byte(`"kind":"decide"`)) {
			t.Fatalf("%s: audit has no decide event", sel)
		}
	}
}

// TestSpeculativeSelectionLatency pins the point of the exercise: measuring
// candidates on concurrent worlds turns the sum of candidate costs into (at
// the critical path) the max, which at least halves the virtual selection
// latency (2.70x on the 3-candidate ialltoall row when committed).
func TestSpeculativeSelectionLatency(t *testing.T) {
	whale, err := platform.ByName("whale")
	if err != nil {
		t.Fatal(err)
	}
	short := smallSpec(t)
	short.Iterations = 10
	rows := []struct {
		name string
		spec MicroSpec
	}{
		{"ialltoall-crill-24it", smallSpec(t)},
		{"ialltoall-crill", short},
		{"ibcast-whale", MicroSpec{
			Platform: whale, Procs: 8, MsgSize: 128 * 1024, Op: OpIbcast,
			ComputePerIter: 4e-3, Iterations: 10, ProgressCalls: 4, Seed: 7, EvalsPerFn: 3,
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r, err := RunSpeculative(row.spec, "brute-force", 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.CandidateTime) < 2 {
				t.Fatalf("only %d candidates measured", len(r.CandidateTime))
			}
			for i, d := range r.CandidateTime {
				if d <= 0 {
					t.Fatalf("candidate %d has non-positive duration %g", i, d)
				}
			}
			if r.Speedup() < 2 {
				t.Fatalf("critical-path speedup %.2f, want >= 2 with %d candidates", r.Speedup(), len(r.CandidateTime))
			}
		})
	}
}

// TestSpeculativeWinnerIsCorrect holds the speculative decision to the
// paper's 5% verification criterion against the fixed-implementation runs.
func TestSpeculativeWinnerIsCorrect(t *testing.T) {
	spec := smallSpec(t)
	r, err := RunSpeculative(spec, "brute-force", 4)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := allFixed(spec)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	var winnerTotal float64 = -1
	for i, f := range fixed {
		if f.Total < fixed[best].Total {
			best = i
		}
		if f.Impl == r.Result.Winner {
			winnerTotal = f.Total
		}
	}
	if winnerTotal < 0 {
		t.Fatalf("winner %q is not a fixed implementation", r.Result.Winner)
	}
	if winnerTotal > fixed[best].Total*(1+CorrectTolerance) {
		t.Fatalf("speculative winner %q (%.6gs) outside 5%% of best %q (%.6gs)",
			r.Result.Winner, winnerTotal, fixed[best].Impl, fixed[best].Total)
	}
}

// TestSpeculativeChaosAndRejections: speculative runs compose with a chaos
// profile (every candidate's world replays the same injector streams), with
// Observe and with Data — both passive, so the run commits the same winner
// from the same samples at the same times as the plain one — and the one
// selector kind that cannot be replayed fails loudly.
func TestSpeculativeChaosAndRejections(t *testing.T) {
	spec := smallSpec(t)
	spec.Chaos = "os-jitter"
	spec.ChaosSeed = 9
	a, err := RunSpeculative(spec, "brute-force", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpeculative(spec, "brute-force", 6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Fatal("chaos speculative result depends on worker count")
	}

	plain, err := RunSpeculative(smallSpec(t), "brute-force", 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]func(*MicroSpec){
		"Observe": func(s *MicroSpec) { s.Observe = true },
		"Data":    func(s *MicroSpec) { s.Data = true },
	} {
		spec := smallSpec(t)
		set(&spec)
		got, err := RunSpeculative(spec, "brute-force", 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (got.Recorder != nil) != spec.Observe || (got.Result.Overlap > 0) != spec.Observe {
			t.Errorf("%s: recorder %v, overlap %g", name, got.Recorder != nil, got.Result.Overlap)
		}
		// Everything but the mode itself and what it alone reports.
		got.Result.Spec, got.Result.Observed = plain.Result.Spec, plain.Result.Observed
		if !bytes.Equal(encode(t, got), encode(t, plain)) {
			t.Errorf("%s speculative run differs from the plain one:\n%s\nvs\n%s", name, encode(t, got), encode(t, plain))
		}
	}
	if _, err := RunADCL(smallSpec(t), "speculative+adaptive"); err == nil {
		t.Fatal("adaptive selector accepted")
	}
}

// TestVerificationOptsSpeculate: "speculative+<inner>" is a selector name like
// any other — a verification run measures it beside the fixed implementations
// under its own cache address, and the aggregate stays a plain []MicroResult.
func TestVerificationOptsSpeculate(t *testing.T) {
	const sel = "speculative+brute-force"
	spec := smallSpec(t)
	v, err := RunVerificationOpts(spec, RunOptions{Workers: 2}, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.ADCL) != 1 || v.ADCL[0].Impl != "adcl:"+sel {
		t.Fatalf("speculative verification ADCL entry = %+v", v.ADCL)
	}
	if !v.Correct(0) {
		t.Fatalf("speculative verification picked %q, outside tolerance", v.ADCL[0].Winner)
	}
	if k := ADCLKey(spec, sel); k == "" || k == ADCLKey(spec, "brute-force") {
		t.Fatal("the prefixed name must have its own non-empty ADCLKey")
	}
	if VerificationKey(spec, []string{sel}) == VerificationKey(spec, []string{"brute-force"}) {
		t.Fatal("the prefixed name must have its own VerificationKey")
	}
	// A sweep whose selector list names it runs each scenario's verification.
	st, err := VerificationSweepOpts([]MicroSpec{spec}, []string{sel}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, st.Runs[0]), encode(t, v)) {
		t.Fatal("speculative sweep run differs from the speculative verification of its scenario")
	}
}

// TestSpeculativeDeterministic: same spec, run twice, byte-identical — the
// property caching a speculative run under its ADCLKey relies on.
func TestSpeculativeDeterministic(t *testing.T) {
	plat, err := platform.ByName("whale")
	if err != nil {
		t.Fatal(err)
	}
	spec := MicroSpec{
		Platform: plat, Procs: 4, MsgSize: 32 * 1024, Op: OpIbcast,
		ComputePerIter: 2e-3, Iterations: 10, ProgressCalls: 4, Seed: 12, EvalsPerFn: 3,
	}
	r1, err := RunSpeculative(spec, "attr-heuristic", 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSpeculative(spec, "attr-heuristic", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, r1), encode(t, r2)) {
		t.Fatal("speculative run not reproducible")
	}
}
