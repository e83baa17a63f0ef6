package bench

import (
	"bytes"
	"strings"
	"testing"

	"nbctune/internal/platform"
)

// TestSpeculativeWorkerCountInvariant is the acceptance pin for the fork
// tentpole at the bench layer: the entire speculative result — decision,
// audit trail, execution-phase timing, per-candidate virtual costs — must be
// byte-identical whether the candidate forks ran on one worker or many.
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
		r8.Workers = r1.Workers // the one intentionally worker-dependent field
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
// candidates on concurrent forks turns the sum of candidate costs into (at
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
					t.Fatalf("candidate %d has non-positive fork duration %g", i, d)
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
// profile (the injector streams clone into every fork), and the documented
// unsupported modes fail loudly instead of silently dropping features.
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
	b.Workers = a.Workers
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Fatal("chaos speculative result depends on worker count")
	}

	bad := smallSpec(t)
	bad.Observe = true
	if _, err := RunSpeculative(bad, "brute-force", 2); err == nil {
		t.Fatal("Observe spec accepted")
	}
	bad = smallSpec(t)
	bad.Data = true
	if _, err := RunSpeculative(bad, "brute-force", 2); err == nil {
		t.Fatal("Data spec accepted")
	}
	if _, err := RunSpeculative(smallSpec(t), "adaptive", 2); err == nil {
		t.Fatal("adaptive selector accepted")
	}
}

// TestVerificationOptsSpeculate: the RunOptions plumbing swaps ADCL jobs to
// speculative evaluation and the aggregate stays a plain []MicroResult.
func TestVerificationOptsSpeculate(t *testing.T) {
	spec := smallSpec(t)
	v, err := RunVerificationOpts(spec, RunOptions{Workers: 2, Speculate: true, SpecWorkers: 4}, "brute-force")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.ADCL) != 1 || v.ADCL[0].Impl != "adcl:speculative+brute-force" {
		t.Fatalf("speculative verification ADCL entry = %+v", v.ADCL)
	}
	if !v.Correct(0) {
		t.Fatalf("speculative verification picked %q, outside tolerance", v.ADCL[0].Winner)
	}
	if k := SpecKey(spec, "brute-force"); k == "" || k == ADCLKey(spec, "brute-force") {
		t.Fatal("SpecKey must be distinct and non-empty")
	}
	// The sweep hands the option down to each scenario's verification
	// (sweep -speculate), and refuses up front what a snapshot cannot carry.
	st, err := VerificationSweepOpts([]MicroSpec{spec}, []string{"brute-force"}, RunOptions{Speculate: true, SpecWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, st.Runs[0]), encode(t, v)) {
		t.Fatal("speculative sweep run differs from the speculative verification of its scenario")
	}
	spec.PDES = true
	if _, err := RunVerificationOpts(spec, RunOptions{Speculate: true}, "brute-force"); err == nil || !strings.Contains(err.Error(), "PDES") {
		t.Fatalf("speculative verification on a sharded world: %v", err)
	}
}

// TestSpeculativeDeterministic: same spec, run twice, byte-identical — the
// property SpecKey caching relies on.
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
