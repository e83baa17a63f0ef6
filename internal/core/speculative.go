package core

import (
	"fmt"

	"nbctune/internal/obs"
	"nbctune/internal/runner"
)

// Speculative candidate evaluation: instead of measuring candidates one after
// another in-line with the running application, every candidate's measurement
// rounds run on an independent copy of the world at the decision point (its
// "fork" in the audit), dispatched to a worker pool. The measurements then
// replay through the unmodified inner selector (same robust-score path, same
// pruning, same audit events), so the decision is byte-identical to feeding the selector the same streams sequentially —
// which is exactly what a 1-worker run does. Selection latency drops from
// the sum of all candidates' measurement time to the maximum over
// candidates.

// CandidateRunner measures one candidate on a world of its own: it runs
// `rounds` iterations of implementation fn from the decision point and
// returns the per-iteration measurements in iteration order. Implementations
// must be deterministic in (fn, rounds) — every call with the same arguments
// yields the same stream — and safe to call concurrently (each call owns its
// world). internal/bench provides the implementation, a world assembled from
// the spec and replayed to the decision point.
type CandidateRunner func(fn, rounds int) ([]float64, error)

// Capture is the candidate-side selection logic: it never decides, pins every
// iteration to one implementation, and collects the (synchronized)
// measurements for later replay through the real selector. Because it never
// reports decided, Timer.StopWith keeps max-reducing across ranks, so all
// ranks of a fork capture identical streams.
type Capture struct {
	fn      int
	samples []float64
}

// NewCapture returns a capture logic pinned to implementation fn.
func NewCapture(fn int) *Capture { return &Capture{fn: fn} }

func (c *Capture) Name() string             { return "capture" }
func (c *Capture) Next() (int, bool)        { return c.fn, false }
func (c *Capture) Record(fn int, t float64) { c.samples = append(c.samples, t) }
func (c *Capture) Winner() int              { return -1 }
func (c *Capture) Evals() int               { return len(c.samples) }

// Samples returns the captured measurements in iteration order.
func (c *Capture) Samples() []float64 { return c.samples }

// speculable builds the named inner selector for a replay. Adaptive
// selectors are refused: a fixed per-fork budget cannot feed a monitor.
func speculable(inner string, fs *FunctionSet, evalsPerFn int) (*Search, error) {
	sel, err := SelectorByName(inner, fs, evalsPerFn)
	if err != nil {
		return nil, err
	}
	s, ok := sel.(*Search)
	if !ok {
		return nil, fmt.Errorf("adcl: speculative evaluation cannot drive %q: adaptive selectors keep measuring after the decision", inner)
	}
	return s, nil
}

// Speculation is the decided result of a speculative evaluation: the winner
// (the application's iterations all run post-decision) and the audit of how
// the decision was reached — fork and join events bracketing the inner
// selector's own sample/estimate/prune/decide trail.
type Speculation struct {
	Winner int
	Evals  int        // measurements the inner selector consumed
	Rounds int        // per-candidate measurement budget the forks ran
	Audit  *obs.Audit // its Selector names the logic: "speculative+<inner selector>"
}

// Speculate builds no world itself — the CandidateRunner owns them. It
// dispatches one job per candidate to `workers` parallel workers (<= 0:
// GOMAXPROCS, as runner.Options takes it), then replays the captured streams
// through a fresh inner selector in its sequential measurement order. Fork
// events are logged in candidate order before dispatch and join events after
// all forks complete, so the audit — like the decision — is byte-identical
// for every worker count.
func Speculate(inner string, fs *FunctionSet, evalsPerFn, workers int, run CandidateRunner) (*Speculation, error) {
	sel, err := speculable(inner, fs, evalsPerFn)
	if err != nil {
		return nil, err
	}
	rounds := sel.rounds()
	au := obs.NewAudit(speculativePrefix+sel.Name(), fs.FunctionNames())

	jobs := make([]runner.Job, len(fs.Fns))
	for fn := range fs.Fns {
		au.Fork(fn, fmt.Sprintf("rounds=%d", rounds))
		jobs[fn] = runner.Job{
			Label: fmt.Sprintf("speculate %s", fs.Fns[fn].Name),
			Run:   func() (any, error) { return run(fn, rounds) },
		}
	}
	results, err := runner.Run(jobs, runner.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	streams := make([][]float64, len(fs.Fns))
	for fn, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("adcl: speculative fork for %q failed: %w", fs.Fns[fn].Name, res.Err)
		}
		if err := res.Decode(&streams[fn]); err != nil {
			return nil, err
		}
		au.Join(fn, len(streams[fn]), "")
	}

	// Merge: replay the streams through the inner selector in the exact
	// order it would have measured in-line. Each candidate's samples are
	// consumed front to back, so the scores flow through the identical
	// robust-score arithmetic.
	sel.setAudit(au)
	pos := make([]int, len(fs.Fns))
	for {
		fn, decided := sel.Next()
		if decided {
			break
		}
		if pos[fn] >= len(streams[fn]) {
			return nil, fmt.Errorf("adcl: speculative stream for %q exhausted after %d rounds (budget bug)", fs.Fns[fn].Name, len(streams[fn]))
		}
		sel.Record(fn, streams[fn][pos[fn]])
		pos[fn]++
	}
	return &Speculation{Winner: sel.Winner(), Evals: sel.Evals(), Rounds: rounds, Audit: au}, nil
}
