package guideline

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"nbctune/internal/core"
	"nbctune/internal/obs"
)

// violatingScenario is the smoke-matrix cell pinned by the committed report:
// a large broadcast on the high-latency TCP machine, where the tuned tree
// set robustly loses to the bandwidth-optimal scatter+allgather mock.
func violatingScenario() Scenario {
	return Scenario{
		Op: "ibcast", Platform: "whale-tcp", Procs: 16, Size: 262144,
		Seed: 42, Reps: 5, Evals: 2,
	}
}

// TestViolationFeedbackLoop is the end-to-end regression for the
// violations→function-set feedback loop: the engine must flag the seeded
// violation, promote the composed mock into the Ibcast set, log the
// promotion in the selection audit, and the selector must then choose the
// mock in the audited rematch.
func TestViolationFeedbackLoop(t *testing.T) {
	rep, err := Run(Config{Scenarios: []Scenario{violatingScenario()}, Adopt: true, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 1 {
		t.Fatalf("violations = %d, want 1 (findings: %+v)", rep.Violations, rep.Findings)
	}
	var f *Finding
	for i := range rep.Findings {
		if rep.Findings[i].Violated {
			f = &rep.Findings[i]
		}
	}
	if f.Guideline != "ibcast-vs-scatter-allgather" {
		t.Fatalf("violated guideline = %s", f.Guideline)
	}
	if f.CliffDelta < DefaultMinEffect {
		t.Fatalf("violation with delta %g below the effect gate", f.CliffDelta)
	}

	if len(rep.Registrations) != 1 {
		t.Fatalf("registrations = %d, want 1", len(rep.Registrations))
	}
	reg := rep.Registrations[0]
	if reg.Mock != core.MockIbcastScatterAllgather {
		t.Fatalf("registered mock = %q", reg.Mock)
	}
	if !reg.Adopted || reg.Chosen != reg.Mock {
		t.Fatalf("mock not adopted: chosen=%q adopted=%v", reg.Chosen, reg.Adopted)
	}
	// Provenance trail: the audit's candidate list contains the mock, its
	// first event is the promotion record naming the violated guideline, and
	// the audited decision is the mock itself.
	aud := reg.Audit
	if aud == nil {
		t.Fatal("registration carries no audit")
	}
	mockIdx := -1
	for i, name := range aud.Functions {
		if name == reg.Mock {
			mockIdx = i
		}
	}
	if mockIdx < 0 {
		t.Fatalf("mock missing from audited candidates %v", aud.Functions)
	}
	if len(aud.Events) == 0 || aud.Events[0].Kind != obs.AuditMock || aud.Events[0].Fn != mockIdx {
		t.Fatalf("first audit event is not the mock promotion: %+v", aud.Events[:1])
	}
	if reg.Provenance == "" || aud.Events[0].Detail != reg.Provenance {
		t.Fatalf("mock promotion event carries %q, the registration %q", aud.Events[0].Detail, reg.Provenance)
	}
	if last := aud.Events[len(aud.Events)-1]; last.Kind != obs.AuditDecide || last.Fn != mockIdx {
		t.Fatalf("audit ends with %+v, want the decision for the mock (%d)", last, mockIdx)
	}
}

// TestCleanScenarioNoViolation: the same operation on the InfiniBand
// machine at a small size holds every guideline.
func TestCleanScenarioNoViolation(t *testing.T) {
	sc := Scenario{Op: "ibcast", Platform: "crill", Procs: 8, Size: 4096, Seed: 42, Reps: 5, Evals: 2}
	rep, err := Run(Config{Scenarios: []Scenario{sc}, Adopt: true, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 || len(rep.Registrations) != 0 {
		t.Fatalf("clean scenario produced %d violations, %d registrations", rep.Violations, len(rep.Registrations))
	}
}

// TestReportDeterminism: the same config produces byte-identical report
// encodings across runs and worker counts, and the report passes its own
// consistency check.
func TestReportDeterminism(t *testing.T) {
	scs := []Scenario{
		violatingScenario(),
		{Op: "iallreduce", Platform: "crill", Procs: 8, Size: 8192, Seed: 42, Reps: 5, Evals: 2},
	}
	files := make([][]byte, 2)
	for i, workers := range []int{-1, 1} {
		rep, err := Run(Config{Scenarios: scs, Adopt: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Check(); err != nil {
			t.Fatal(err)
		}
		if files[i], err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("report bytes differ across worker counts")
	}
}

// TestCheckCatchesTampering: Check must fail on schema drift and on stored
// verdicts that the samples do not support.
func TestCheckCatchesTampering(t *testing.T) {
	rep, err := Run(Config{Scenarios: []Scenario{violatingScenario()}, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}

	badSchema := clone(t, rep)
	badSchema.SchemaVersion++
	if err := badSchema.Check(); err == nil {
		t.Fatal("schema drift not caught")
	}

	badVerdict := clone(t, rep)
	for i := range badVerdict.Findings {
		badVerdict.Findings[i].Violated = !badVerdict.Findings[i].Violated
	}
	if err := badVerdict.Check(); err == nil {
		t.Fatal("flipped verdict not caught")
	}

	badScore := clone(t, rep)
	badScore.Findings[0].Left.Score *= 2
	if err := badScore.Check(); err == nil {
		t.Fatal("tampered score not caught")
	}
}

// TestCommittedReportChecks: the committed results/guideline_report.json is
// of this build's schema, and every verdict and effect size it stores
// re-derives from its own samples. Whether sweep -suite guidelines -fast
// still writes those bytes is make e2e's row 3.
func TestCommittedReportChecks(t *testing.T) {
	b, err := os.ReadFile("../../results/guideline_report.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 1 || len(rep.Registrations) != 1 || !rep.Registrations[0].Adopted {
		t.Errorf("committed report: %d violations, %d registrations; want the one adopted ibcast/whale-tcp mock",
			rep.Violations, len(rep.Registrations))
	}
}

func clone(t *testing.T, r *Report) *Report {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestScenarioGrids: the smoke and full grids are 14 and 96 scenarios on one
// machine each, the clean one unless a profile is passed, and a profile that
// is passed reaches every scenario with its seed.
func TestScenarioGrids(t *testing.T) {
	for _, g := range []struct {
		name  string
		grid  func(seed int64, chaos string, chaosSeed int64) []Scenario
		count int
	}{{"smoke", SmokeScenarios, 14}, {"full", FullScenarios, 96}} {
		for _, chaos := range []string{"", "congested"} {
			scs := g.grid(42, chaos, 7)
			if len(scs) != g.count {
				t.Errorf("%s grid, chaos %q: %d scenarios, want %d", g.name, chaos, len(scs), g.count)
			}
			for _, sc := range scs {
				if sc.Chaos != chaos || sc.ChaosSeed != 7 || sc.Seed != 42 {
					t.Errorf("%s grid, chaos %q: scenario %s has chaos %q, chaos seed %d, seed %d", g.name, chaos, sc, sc.Chaos, sc.ChaosSeed, sc.Seed)
				}
			}
		}
	}
}
