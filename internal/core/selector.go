package core

import (
	"fmt"
	"strings"

	"nbctune/internal/obs"
	"nbctune/internal/stats"
)

// Selector is a runtime selection logic: it dictates which implementation
// the next iteration uses and consumes one measurement per iteration until
// it decides on a winner.
//
// Protocol: call Next() to learn the implementation for the upcoming
// iteration; after measuring the iteration, call Record with that index.
// Once Next reports decided=true the winner is fixed and Record becomes a
// no-op.
type Selector interface {
	Name() string
	Next() (fn int, decided bool)
	Record(fn int, t float64)
	// Winner returns the decided function index; only valid once Next
	// reports decided.
	Winner() int
	// Evals returns the number of measurements consumed so far (the cost of
	// the learning phase).
	Evals() int
}

// measStore accumulates per-function measurements and reduces them with
// ADCL's robust score (outlier-filtered mean) or a caller-supplied scoring
// function (used by the outlier-filter ablation).
type measStore struct {
	meas   map[int][]float64
	n      int
	score0 func([]float64) float64
}

func (m *measStore) record(fn int, t float64) {
	if m.meas == nil {
		m.meas = map[int][]float64{}
	}
	m.meas[fn] = append(m.meas[fn], t)
	m.n++
}

func (m *measStore) score(fn int) float64 {
	if m.score0 != nil {
		return m.score0(m.meas[fn])
	}
	return stats.RobustScore(m.meas[fn])
}

func (m *measStore) argmin(cands []int) int {
	best, bestScore := cands[0], m.score(cands[0])
	for _, c := range cands[1:] {
		if s := m.score(c); s < bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// FixedSelector always selects one implementation; used when historic
// learning already knows the winner.
type FixedSelector struct{ Fn int }

func (s *FixedSelector) Name() string             { return "fixed" }
func (s *FixedSelector) Next() (int, bool)        { return s.Fn, true }
func (s *FixedSelector) Record(fn int, t float64) {}
func (s *FixedSelector) Winner() int              { return s.Fn }
func (s *FixedSelector) Evals() int               { return 0 }

// Search is the one learner behind every selection logic of the paper
// (§III-A). It measures in stages: a stage's candidates run round-robin
// (so slow drift hits all of them equally) until each has `evals` samples,
// then the stage is reduced with the robust score. Screening stages, chosen
// and read by the search's plan, only prune the survivors; the last stage is
// always a brute force over whoever survived, scored from its own samples,
// and its best candidate is the decision. The three logics differ in their
// plan alone:
//
//   - brute force has none: the one stage covers every implementation, at
//     the price of the longest learning phase;
//   - the attribute heuristic (attrPlan) screens one attribute per stage;
//   - the 2^k factorial design (factorialPlan) screens the corner
//     implementations once.
type Search struct {
	name  string
	fns   []*Function // what a plan's verdict is applied to; nil without a plan
	evals int
	plan  plan

	remaining []int  // survivors of the screening stages so far
	cands     []int  // the stage being measured
	phase     string // its label in the audit ("" for none)
	deciding  bool   // the stage is the final brute force over remaining
	seq       int    // measurements taken in the stage

	screen measStore // every screening stage's samples
	final  measStore // the final brute force's samples

	decided bool
	winner  int
	audit   *obs.Audit
}

// plan is what distinguishes the pruning logics: which candidates a screening
// stage measures and what its scores say about the survivors. The
// measurement protocol, the audit trail and the guideline-mock exemption are
// the Search's.
type plan interface {
	// stage opens the next screening stage over the survivors: the
	// candidates to measure and the stage's label for the audit ("" for
	// none). No candidates ends the screening.
	stage(remaining []int) (cands []int, phase string)
	// reduce reads the finished stage's scores: the survivors for which keep
	// holds stay, and reason describes the cut to the audit.
	reduce(st *measStore, cands []int) (keep func(*Function) bool, reason string)
	// maxStages bounds how many stages, the final one included, can measure
	// one and the same candidate.
	maxStages() int
}

func newSearch(name string, fns []*Function, fnCount, evalsPerFn int, p plan) *Search {
	if fnCount == 0 {
		panic("adcl: brute force over empty candidate set")
	}
	if evalsPerFn < 1 {
		evalsPerFn = 1
	}
	s := &Search{name: name, fns: fns, evals: evalsPerFn, plan: p}
	s.remaining = make([]int, fnCount)
	for i := range s.remaining {
		s.remaining[i] = i
	}
	s.advance()
	return s
}

// NewBruteForce tunes over all fnCount implementations: every candidate is
// evaluated evalsPerFn times and the best robust score wins. It is guaranteed
// to consider every implementation (paper §III-A).
func NewBruteForce(fnCount, evalsPerFn int) *Search {
	return newSearch("brute-force", nil, fnCount, evalsPerFn, nil)
}

// NewBruteForceWithScore is NewBruteForce with a custom measurement scoring
// function (e.g. stats.Mean to ablate the outlier filter).
func NewBruteForceWithScore(fnCount, evalsPerFn int, score func([]float64) float64) *Search {
	s := NewBruteForce(fnCount, evalsPerFn)
	s.final.score0 = score
	return s
}

// advance opens the next stage: the plan's next screen, or — once the plan
// has none left — the final brute force, which a lone survivor of the
// screening wins without further measurement.
func (s *Search) advance() {
	s.seq = 0
	if s.plan != nil {
		if s.cands, s.phase = s.plan.stage(s.remaining); s.cands != nil {
			if s.phase != "" {
				s.audit.Phase(s.phase)
			}
			return
		}
		if len(s.remaining) == 1 {
			s.decide(s.remaining[0], s.screen.n)
			return
		}
		s.audit.Phase(fmt.Sprintf("final brute force over %d survivors", len(s.remaining)))
	}
	s.cands, s.deciding = s.remaining, true
}

func (s *Search) decide(winner, evals int) {
	s.winner, s.decided = winner, true
	s.audit.Decide(winner, evals)
}

// store returns the samples the current stage records into and is scored from.
func (s *Search) store() *measStore {
	if s.deciding {
		return &s.final
	}
	return &s.screen
}

func (s *Search) Name() string { return s.name }

func (s *Search) Next() (int, bool) {
	if s.decided {
		return s.winner, true
	}
	return s.cands[s.seq%len(s.cands)], false
}

func (s *Search) Record(fn int, t float64) {
	if s.decided {
		return
	}
	st := s.store()
	s.audit.Sample(fn, t)
	st.record(fn, t)
	if s.seq++; s.seq < s.evals*len(s.cands) {
		return
	}
	auditEstimates(s.audit, st, s.cands)
	if s.deciding {
		s.decide(st.argmin(s.cands), st.n)
		return
	}
	keep, reason := s.plan.reduce(st, s.cands)
	s.keep(keep, reason)
	s.advance()
}

// keep applies a screening verdict to the survivors. Guideline mocks
// (all-sentinel attribute vectors) are exempt: no attribute describes them,
// so no attribute decision can eliminate them — they ride through to the
// final brute force.
func (s *Search) keep(pred func(*Function) bool, reason string) {
	var kept, removed []int
	for _, i := range s.remaining {
		if pred(s.fns[i]) || IsMockFn(s.fns[i]) {
			kept = append(kept, i)
		} else {
			removed = append(removed, i)
		}
	}
	if len(removed) > 0 {
		s.audit.Prune(reason, removed)
	}
	s.remaining = kept
}

func (s *Search) Winner() int { return s.winner }
func (s *Search) Evals() int  { return s.screen.n + s.final.n }

// rounds is the most measurements the search can ask of one candidate: its
// evaluations per stage times the stages that can reach the same candidate.
// Every speculative fork runs exactly this many rounds, so the replay can
// never starve; surplus measurements are simply never consumed.
func (s *Search) rounds() int {
	if s.plan == nil {
		return s.evals
	}
	return s.evals * s.plan.maxStages()
}

// attrPlan is ADCL's attribute-based search heuristic [13]: it assumes the
// best implementation has the optimal value in every attribute dimension, so
// each stage optimizes one attribute over a "slice" of implementations that
// differ only in that attribute, and prunes every implementation without the
// winning value. Cost is roughly the sum of the attribute cardinalities
// rather than their product.
type attrPlan struct {
	fns   []*Function
	attrs []Attribute
	attr  int // the attribute being sliced, or the next to try
}

// NewAttrHeuristic builds the heuristic for a function set. Function sets
// without attributes degrade to brute force.
func NewAttrHeuristic(fs *FunctionSet, evalsPerFn int) *Search {
	if fs.AttrSet == nil || len(fs.AttrSet.Attrs) == 0 {
		return NewBruteForce(len(fs.Fns), evalsPerFn)
	}
	return newSearch("attr-heuristic", fs.Fns, len(fs.Fns), evalsPerFn, &attrPlan{fns: fs.Fns, attrs: fs.AttrSet.Attrs})
}

// stage moves to the next attribute with at least two live values and a
// slice that can tell them apart.
func (p *attrPlan) stage(remaining []int) ([]int, string) {
	for ; p.attr < len(p.attrs); p.attr++ {
		if len(distinctValues(p.fns, remaining, p.attr)) < 2 {
			continue
		}
		if sl := p.slice(remaining); len(sl) >= 2 {
			return sl, fmt.Sprintf("slicing attribute %q over %d candidates", p.attrs[p.attr].Name, len(sl))
		}
	}
	return nil, ""
}

// slice collects, for the current attribute, one candidate per distinct
// value: the characterized implementations equal to remaining[0] in every
// other attribute.
func (p *attrPlan) slice(remaining []int) []int {
	base := p.fns[remaining[0]]
	var out []int
	for _, i := range remaining {
		ok := !IsMockFn(p.fns[i]) // uncharacterized: no attribute slices it
		for a, v := range p.fns[i].Attrs {
			if a != p.attr && v != base.Attrs[a] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

func (p *attrPlan) reduce(st *measStore, cands []int) (func(*Function) bool, string) {
	a := p.attr
	p.attr++
	best := p.fns[st.argmin(cands)].Attrs[a]
	return func(f *Function) bool { return f.Attrs[a] == best },
		fmt.Sprintf("attribute %q pinned to %d", p.attrs[a].Name, best)
}

// One candidate can sit in every attribute's slice and in the final stage.
func (p *attrPlan) maxStages() int { return len(p.attrs) + 1 }

// factorialThreshold scales the strong-effect cutoff of the 2^k design: an
// attribute is pinned when |main effect| > factorialThreshold * mean corner
// response.
const factorialThreshold = 0.02

// factorialPlan is the 2^k factorial design selection logic [4,5]: one stage
// measures only the corner implementations (every attribute at its extreme
// values), estimates main effects and pins attributes with strong effects to
// their better extreme. Unlike the attribute heuristic it tolerates
// correlated attributes, because interactions are visible in the corner
// responses.
type factorialPlan struct {
	factors     []int // attribute indices participating as 2-level factors
	lows, highs []int
	corners     []stats.Corner
	cornerFn    []int
	screened    bool
}

// NewFactorial2K builds the factorial-design selector; it falls back to
// brute force when the function set has no attributes or the corner
// implementations don't all exist.
func NewFactorial2K(fs *FunctionSet, evalsPerFn int) *Search {
	if fs.AttrSet == nil {
		return NewBruteForce(len(fs.Fns), evalsPerFn)
	}
	all := make([]int, len(fs.Fns))
	for i := range all {
		all[i] = i
	}
	p := &factorialPlan{}
	for a := range fs.AttrSet.Attrs {
		if vals := distinctValues(fs.Fns, all, a); len(vals) >= 2 {
			p.factors = append(p.factors, a)
			p.lows = append(p.lows, vals[0])
			p.highs = append(p.highs, vals[len(vals)-1])
		}
	}
	if len(p.factors) == 0 {
		return NewBruteForce(len(fs.Fns), evalsPerFn)
	}
	p.corners = stats.Corners(len(p.factors))
	for _, c := range p.corners {
		// Build the attribute vector for this corner: factor attributes at
		// their extreme, non-factor attributes at their single value.
		want := append([]int(nil), fs.Fns[0].Attrs...)
		for fi, a := range p.factors {
			if c.Levels[fi] {
				want[a] = p.highs[fi]
			} else {
				want[a] = p.lows[fi]
			}
		}
		idx := fs.FindFunction(want)
		if idx < 0 {
			// Incomplete design: cannot run the factorial screen.
			return NewBruteForce(len(fs.Fns), evalsPerFn)
		}
		p.cornerFn = append(p.cornerFn, idx)
	}
	return newSearch("factorial-2k", fs.Fns, len(fs.Fns), evalsPerFn, p)
}

func (p *factorialPlan) stage([]int) ([]int, string) {
	if p.screened {
		return nil, ""
	}
	p.screened = true
	return p.cornerFn, ""
}

func (p *factorialPlan) reduce(st *measStore, _ []int) (func(*Function) bool, string) {
	total := 0.0
	for i := range p.corners {
		p.corners[i].Score = st.score(p.cornerFn[i])
		total += p.corners[i].Score
	}
	eff := stats.ComputeEffects(p.corners)
	threshold := factorialThreshold * total / float64(len(p.corners))
	pinned := map[int]int{} // attribute index -> pinned value
	for fi, a := range p.factors {
		if m := eff.Main[fi]; m > threshold || m < -threshold {
			if eff.BetterLevel(fi) {
				pinned[a] = p.highs[fi]
			} else {
				pinned[a] = p.lows[fi]
			}
		}
	}
	keep := func(f *Function) bool {
		for a, v := range pinned {
			if f.Attrs[a] != v {
				return false
			}
		}
		return true
	}
	return keep, fmt.Sprintf("corner screen pinned %d attribute(s)", len(pinned))
}

// Corners are measured in the screen, survivors once more in the final stage.
func (p *factorialPlan) maxStages() int { return 2 }

// SpeculativeInner splits a "speculative+<inner>" name: the logic that
// measures every candidate on a world of its own and replays the streams
// through the inner selector (speculative.go). Only a harness that builds
// worlds can run it (bench.RunADCL), so SelectorByName never resolves it; ok
// is false, and inner the whole name, for every other selector.
func SpeculativeInner(name string) (inner string, ok bool) {
	return strings.CutPrefix(name, speculativePrefix)
}

const speculativePrefix = "speculative+"

// SelectorByName builds a selector from its registry name; used by the
// benchmark drivers' command lines. "adaptive" (or "adaptive+<inner>")
// wraps the inner learning selector with the drift monitor of adaptive.go;
// "brute-force-mean" is the outlier-filter ablation (plain mean scoring).
func SelectorByName(name string, fs *FunctionSet, evalsPerFn int) (Selector, error) {
	mk, err := selectorMaker(name, fs, evalsPerFn)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

// selectorMaker resolves a registry name to the constructor call it stands
// for, which an adaptive selector repeats once per tuning round.
func selectorMaker(name string, fs *FunctionSet, evalsPerFn int) (func() Selector, error) {
	if rest, ok := strings.CutPrefix(name, "adaptive"); ok && (rest == "" || rest[0] == '+') {
		inner := strings.TrimPrefix(rest, "+")
		if inner == "" {
			inner = "brute-force"
		}
		mk, err := selectorMaker(inner, fs, evalsPerFn)
		if err != nil {
			return nil, fmt.Errorf("adcl: adaptive selector: %w", err)
		}
		return func() Selector { return NewAdaptive(mk) }, nil
	}
	switch name {
	case "brute-force", "bruteforce", "bf":
		return func() Selector { return NewBruteForce(len(fs.Fns), evalsPerFn) }, nil
	case "brute-force-mean", "mean":
		return func() Selector { return NewBruteForceWithScore(len(fs.Fns), evalsPerFn, stats.Mean) }, nil
	case "attr-heuristic", "heuristic":
		return func() Selector { return NewAttrHeuristic(fs, evalsPerFn) }, nil
	case "factorial-2k", "factorial":
		return func() Selector { return NewFactorial2K(fs, evalsPerFn) }, nil
	default:
		return nil, fmt.Errorf("adcl: unknown selector %q", name)
	}
}
