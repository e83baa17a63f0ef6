package bench

import (
	"testing"

	"nbctune/internal/platform"
)

func observeSpec() MicroSpec {
	crill, _ := platform.ByName("crill")
	return MicroSpec{
		Platform: crill, Procs: 4, MsgSize: 1024, Op: OpIbcast,
		ComputePerIter: 2e-3, Iterations: 4, ProgressCalls: 2, Seed: 7,
	}
}

// TestObservationIsTimingNeutral pins the obs invariant end to end: a run
// with a recorder attached must produce exactly the same simulated times as
// the same run without one.
func TestObservationIsTimingNeutral(t *testing.T) {
	spec := observeSpec()
	plain, err := RunFixed(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.Observe = true
	observed, rec, err := runFixed(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total != observed.Total || plain.PerIter != observed.PerIter {
		t.Errorf("observed run changed timing: %v vs %v", observed.Total, plain.Total)
	}
	if rec == nil {
		t.Fatal("observed run returned nil recorder")
	}
	m := rec.Metrics()
	if m.Overlap <= 0 || m.Overlap > 1 {
		t.Errorf("overlap = %v, want in (0, 1]", m.Overlap)
	}
	if m.ProgressCalls == 0 {
		t.Error("no progress calls recorded")
	}
	if m.ProgressAdvanced > m.ProgressCalls {
		t.Errorf("advanced (%d) > calls (%d)", m.ProgressAdvanced, m.ProgressCalls)
	}
	if observed.Overlap != m.Overlap || observed.ProgressMade != m.ProgressCalls {
		t.Error("result metrics do not match recorder metrics")
	}
	if len(m.NIC) == 0 {
		t.Error("no NIC spans recorded for an inter-node broadcast")
	}
	// Per-rank timelines must exist and stay inside the run's time range.
	for rank := 0; rank < rec.Ranks(); rank++ {
		ivs := rec.Intervals(rank)
		if len(ivs) == 0 {
			t.Fatalf("rank %d has no state intervals", rank)
		}
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start < ivs[i-1].End {
				t.Fatalf("rank %d intervals overlap: %+v then %+v", rank, ivs[i-1], ivs[i])
			}
		}
	}
}

// TestObserveFlagCarriesIntoResults checks the sweep-facing path: a spec
// with Observe set yields metric-bearing results through the plain RunFixed
// entry point (the one the runner jobs call).
func TestObserveFlagCarriesIntoResults(t *testing.T) {
	spec := observeSpec()
	spec.Observe = true
	r, err := RunFixed(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Overlap <= 0 || r.ProgressMade == 0 {
		t.Errorf("Observe spec produced empty metrics: %+v", r)
	}
}
