package guideline

import (
	"fmt"
	"math"

	"nbctune/internal/obs"
)

// SchemaVersion identifies the report layout. Report.Check, which a test
// runs on the committed report, fails loudly when a report's version does not
// match, so a schema change cannot silently invalidate committed artifacts.
const SchemaVersion = 1

// Side is one side of a judged guideline: the rendered expression, the
// tuned winner(s) its term leaves committed, the robust score, and the raw
// per-repetition samples. Samples are committed so Check can re-derive the
// verdict without re-simulating.
type Side struct {
	Expr    string
	Winner  string `json:",omitempty"`
	Score   float64
	Samples []float64
}

// Finding is the judgment of one guideline on one scenario.
type Finding struct {
	Guideline string
	Kind      string
	Scenario  Scenario
	Left      Side
	Right     Side
	// CliffDelta, Shift and RelShift are the effect sizes of left versus
	// right (guideline.Verdict).
	CliffDelta float64
	Shift      float64
	RelShift   float64
	Violated   bool
}

// Registration is one feedback-loop outcome: a violated guideline promoted
// its mock into the operation's function set and a fresh tuning round ran on
// the extended set. Adopted reports whether the selector then chose the
// mock; Audit is the round's full selection log, whose first event is the
// obs.AuditMock provenance entry.
type Registration struct {
	Guideline  string
	Op         string
	Mock       string
	Scenario   Scenario
	Provenance string
	Chosen     string
	Adopted    bool
	Evals      int
	Audit      *obs.Audit `json:",omitempty"`
}

// Report is the machine-readable engine output
// (results/guideline_report.json).
type Report struct {
	SchemaVersion int
	Tol           float64
	MinEffect     float64
	Scenarios     int
	// Measurements is the number of deduplicated leaf measurements the
	// matrix required.
	Measurements  int
	Violations    int
	Findings      []Finding
	Registrations []Registration `json:",omitempty"`
}

// Check validates a report's internal consistency: schema version, and —
// because every finding carries its raw samples — every verdict and effect
// size is re-derived from the samples and compared against the stored
// values. A report that passes Check is self-consistent without any
// re-simulation; TestCommittedReportChecks runs this against the committed
// report so a schema or judgment change fails loudly.
func (r *Report) Check() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("guideline: report schema v%d, this build expects v%d — regenerate the report (sweep -suite guidelines -fast) and review EXPERIMENTS.md E14", r.SchemaVersion, SchemaVersion)
	}
	viol := 0
	for i, f := range r.Findings {
		v := Judge(f.Left.Samples, f.Right.Samples, r.Tol, r.MinEffect)
		if v.Violated != f.Violated {
			return fmt.Errorf("guideline: finding %d (%s on %s): stored verdict violated=%v, samples re-derive %v", i, f.Guideline, f.Scenario, f.Violated, v.Violated)
		}
		for _, d := range []struct {
			name         string
			stored, want float64
		}{
			{"left score", f.Left.Score, v.LeftScore},
			{"right score", f.Right.Score, v.RightScore},
			{"cliff delta", f.CliffDelta, v.CliffDelta},
			{"shift", f.Shift, v.Shift},
			{"relative shift", f.RelShift, v.RelShift},
		} {
			if !closeEnough(d.stored, d.want) {
				return fmt.Errorf("guideline: finding %d (%s on %s): stored %s %g, samples re-derive %g", i, f.Guideline, f.Scenario, d.name, d.stored, d.want)
			}
		}
		if f.Violated {
			viol++
		}
	}
	if viol != r.Violations {
		return fmt.Errorf("guideline: report counts %d violations, findings hold %d", r.Violations, viol)
	}
	for i, reg := range r.Registrations {
		if reg.Adopted != (reg.Chosen == reg.Mock) {
			return fmt.Errorf("guideline: registration %d (%s): adopted=%v but chosen=%q mock=%q", i, reg.Guideline, reg.Adopted, reg.Chosen, reg.Mock)
		}
	}
	return nil
}

func closeEnough(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}
