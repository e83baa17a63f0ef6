package bench

import (
	"bytes"
	"encoding/json"
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
	if observed.Overlap != m.Overlap {
		t.Error("result metrics do not match recorder metrics")
	}
	if len(m.NIC) == 0 {
		t.Error("no NIC spans recorded for an inter-node broadcast")
	}
	// Per-rank timelines must exist in the exported trace, in order and
	// without overlap (1e-6 µs absorbs the seconds-to-µs rounding).
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Cat     string
			Tid     int
			Ts, Dur float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	ends := make([]float64, spec.Procs)
	for _, ev := range trace.TraceEvents {
		if ev.Cat != "state" {
			continue
		}
		if ev.Ts < ends[ev.Tid]-1e-6 {
			t.Fatalf("rank %d intervals overlap: one starts at %v µs, the previous ends at %v µs", ev.Tid, ev.Ts, ends[ev.Tid])
		}
		ends[ev.Tid] = ev.Ts + ev.Dur
	}
	for rank, end := range ends {
		if end == 0 {
			t.Fatalf("rank %d has no state intervals", rank)
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
	if r.Overlap <= 0 {
		t.Errorf("Observe spec produced empty metrics: %+v", r)
	}
}
