// Package guideline implements a performance-guideline verification engine
// for the auto-tuned collectives: declarative self-consistency rules in the
// spirit of Hunold et al. ("MPI performance guidelines"), checked against
// the tuned function sets of internal/core on the simulated machines of
// internal/platform.
//
// A guideline compares two expressions — e.g. the tuned Ibcast table versus
// a "mock" broadcast composed from Iscatter+Iallgather, or an operation
// against itself at twice the size (monotonicity) — and is *violated* when
// the left side robustly loses: the verdict uses outlier-filtered scores and
// a Cliff's-delta effect-size gate (internal/stats), never bare means.
//
// Violations feed back into the tuner: when the winning right side is a
// composed mock, the engine promotes that mock into the operation's function
// set (core's *SetWith constructors) and re-runs a tuning round, recording
// the promotion in the selection audit (obs.AuditMock). A guideline
// violation is thus not just a report line — it widens the search space the
// ADCL selector optimizes over. sweep -suite guidelines drives the engine
// over a scenario matrix; -out writes the report (results/guideline_report.json).
package guideline

import (
	"fmt"
	"strings"

	"nbctune/internal/core"
	"nbctune/internal/stats"
)

// Expr is one side of a guideline: an expression tree over collective
// operations. Exactly one of Term, Mock, Seq is set:
//
//   - Term: the tuned table for an operation — measured as "what ADCL
//     commits for this scenario", i.e. the robust-score winner of the
//     operation's full function set.
//   - Mock: a composed implementation from the core mock catalog
//     (core.MockByName), measured as-is.
//   - Seq: sequential composition; per-repetition times add elementwise.
//
// Scale multiplies the scenario's payload parameter for a leaf (0 and 1 both
// mean the unscaled size); it expresses monotonicity guidelines (an
// operation versus itself at 2x the size) and unit conversions inside Seq
// compositions.
type Expr struct {
	Term  string `json:",omitempty"`
	Mock  string `json:",omitempty"`
	Scale int    `json:",omitempty"`
	Seq   []Expr `json:",omitempty"`
}

// String renders the expression for reports: "ibcast", "ibcast[x2]",
// "mock-ibcast-scatter-allgather", "ireduce + ibcast".
func (e Expr) String() string {
	leaf := func(name string) string {
		if e.Scale > 1 {
			return fmt.Sprintf("%s[x%d]", name, e.Scale)
		}
		return name
	}
	switch {
	case e.Term != "":
		return leaf(e.Term)
	case e.Mock != "":
		return leaf(e.Mock)
	default:
		parts := make([]string, len(e.Seq))
		for i, p := range e.Seq {
			parts[i] = p.String()
		}
		return strings.Join(parts, " + ")
	}
}

// validate checks the one-of invariant recursively.
func (e Expr) validate() error {
	set := 0
	if e.Term != "" {
		set++
	}
	if e.Mock != "" {
		set++
		if _, ok := core.MockByName(e.Mock); !ok {
			return fmt.Errorf("guideline: unknown mock %q", e.Mock)
		}
	}
	if len(e.Seq) > 0 {
		set++
		for _, p := range e.Seq {
			if err := p.validate(); err != nil {
				return err
			}
		}
	}
	if set != 1 {
		return fmt.Errorf("guideline: expression must set exactly one of Term, Mock, Seq (got %d)", set)
	}
	return nil
}

// Guideline kinds (documentation labels; the engine treats all kinds
// identically except that dominance guidelines with a single-mock right side
// participate in the feedback loop).
const (
	// KindDominance: the tuned operation must not lose to an alternative
	// formulation of the same semantics.
	KindDominance = "dominance"
	// KindMonotonicity: the tuned operation must not get faster when the
	// payload grows.
	KindMonotonicity = "monotonicity"
	// KindSplitRobustness: the tuned operation must not lose to itself
	// executed as two half-sized exchanges.
	KindSplitRobustness = "split-robustness"
)

// Guideline is one self-consistency rule: Left should not (robustly) exceed
// Right. Op names the operation under test; the engine checks the guideline
// on every matrix scenario for that operation.
type Guideline struct {
	Name string
	Kind string
	Op   string
	// Doc is the rule in prose, printed in reports.
	Doc         string
	Left, Right Expr
}

// PromotesMock returns the mock the feedback loop would register when this
// guideline is violated: the right side's mock name if the right side is a
// single mock leaf for the guideline's operation, else "".
func (g Guideline) PromotesMock() string {
	if g.Right.Mock == "" || g.Right.Scale > 1 {
		return ""
	}
	def, ok := core.MockByName(g.Right.Mock)
	if !ok || def.Op != g.Op {
		return ""
	}
	return g.Right.Mock
}

// Validate checks structural consistency of the guideline.
func (g Guideline) Validate() error {
	if g.Name == "" || g.Op == "" {
		return fmt.Errorf("guideline: name and op are required")
	}
	if err := g.Left.validate(); err != nil {
		return fmt.Errorf("guideline %s: left: %w", g.Name, err)
	}
	if err := g.Right.validate(); err != nil {
		return fmt.Errorf("guideline %s: right: %w", g.Name, err)
	}
	return nil
}

// Defaults returns the shipped guideline suite: one dominance rule per
// catalog mock, size-monotonicity for the two paper operations, and the
// reduce-then-broadcast bound on Iallreduce.
func Defaults() []Guideline {
	return []Guideline{
		{
			Name: "ibcast-vs-scatter-allgather",
			Kind: KindDominance,
			Op:   "ibcast",
			Doc:  "A tuned Ibcast(S) must not lose to the same broadcast composed from Iscatter(S) followed by Iallgather(S).",
			Left: Expr{Term: "ibcast"}, Right: Expr{Mock: core.MockIbcastScatterAllgather},
		},
		{
			Name: "iallgather-vs-gather-bcast",
			Kind: KindDominance,
			Op:   "iallgather",
			Doc:  "A tuned Iallgather(S) must not lose to Igather(S) to rank 0 followed by Ibcast(S) of the assembled vector.",
			Left: Expr{Term: "iallgather"}, Right: Expr{Mock: core.MockIallgatherGatherBcast},
		},
		{
			Name: "ialltoall-split-robustness",
			Kind: KindSplitRobustness,
			Op:   "ialltoall",
			Doc:  "A tuned Ialltoall(S) must not lose to two sequential Ialltoall(S/2) exchanges of the block halves.",
			Left: Expr{Term: "ialltoall"}, Right: Expr{Mock: core.MockIalltoallSplit},
		},
		{
			Name: "ibcast-monotonic-size",
			Kind: KindMonotonicity,
			Op:   "ibcast",
			Doc:  "A tuned Ibcast must not be slower at S bytes than at 2S bytes.",
			Left: Expr{Term: "ibcast"}, Right: Expr{Term: "ibcast", Scale: 2},
		},
		{
			Name: "ialltoall-monotonic-size",
			Kind: KindMonotonicity,
			Op:   "ialltoall",
			Doc:  "A tuned Ialltoall must not be slower at S bytes per pair than at 2S bytes per pair.",
			Left: Expr{Term: "ialltoall"}, Right: Expr{Term: "ialltoall", Scale: 2},
		},
		{
			Name: "iallreduce-vs-reduce-bcast",
			Kind: KindDominance,
			Op:   "iallreduce",
			Doc:  "A tuned Iallreduce(S) must not lose to Ireduce(S) to rank 0 followed by Ibcast(S) of the result.",
			Left: Expr{Term: "iallreduce"}, Right: Expr{Seq: []Expr{{Term: "ireduce"}, {Term: "ibcast"}}},
		},
	}
}

// Default judgment thresholds: the relative slack before a loss counts
// (mirrors the paper's 5% correct-decision tolerance) and the minimum
// Cliff's-delta effect size a violation must show ("large" per the
// conventional 0.474 threshold, rounded up).
const (
	DefaultTol       = 0.05
	DefaultMinEffect = 0.5
)

// Verdict is the statistical judgment of one guideline on one scenario.
type Verdict struct {
	// LeftScore and RightScore are outlier-filtered robust scores (seconds).
	LeftScore  float64
	RightScore float64
	// CliffDelta is the nonparametric effect size of left versus right in
	// [-1, 1]; positive means the left side tends slower.
	CliffDelta float64
	// Shift is the Hodges-Lehmann estimate of left minus right (seconds).
	Shift float64
	// RelShift is Shift relative to the right side's robust score.
	RelShift float64
	// Violated is true when the left side robustly loses: its score exceeds
	// the right's by more than tol AND the effect size clears minEffect.
	Violated bool
}

// Judge compares per-repetition timings of the two sides of a guideline.
// Both gates must trip for a violation: a score gap alone can be one lucky
// repetition, a large Cliff's delta alone can describe a sub-tolerance gap.
func Judge(left, right []float64, tol, minEffect float64) Verdict {
	v := Verdict{
		LeftScore:  stats.RobustScore(left),
		RightScore: stats.RobustScore(right),
		CliffDelta: stats.CliffDelta(left, right),
		Shift:      stats.HodgesLehmann(left, right),
		RelShift:   stats.RelativeShift(left, right),
	}
	v.Violated = v.LeftScore > v.RightScore*(1+tol) && v.CliffDelta >= minEffect
	return v
}
