package core

import (
	"fmt"
	"sort"
	"strings"

	"nbctune/internal/stats"
)

// Reporter is implemented by selectors that expose their per-implementation
// measurements: every Search does.
type Reporter interface {
	// Score returns the current robust estimate for fn (NaN with no
	// samples); the adaptive drift monitor seeds its baseline with the
	// winner's.
	Score(fn int) float64
	// Scores returns the robust score per measured implementation index.
	Scores() map[int]float64
	// Samples returns the raw measurements of one implementation.
	Samples(fn int) []float64
}

func (m *measStore) scores() map[int]float64 {
	out := make(map[int]float64, len(m.meas))
	for fn := range m.meas {
		out[fn] = m.score(fn)
	}
	return out
}

// Score implements Reporter: a winner decided by the final brute force is
// scored there, one decided purely by pruning from the screening samples.
func (s *Search) Score(fn int) float64 { return s.store().score(fn) }

// Scores implements Reporter, merging the screening stages' measurements
// with the final brute-force pass.
func (s *Search) Scores() map[int]float64 {
	out := s.screen.scores()
	for fn, v := range s.final.scores() {
		out[fn] = v
	}
	return out
}

// Samples implements Reporter.
func (s *Search) Samples(fn int) []float64 {
	return append(append([]float64(nil), s.screen.meas[fn]...), s.final.meas[fn]...)
}

// TuningReport renders a human-readable summary of a request's tuning state:
// which implementations were measured, their robust scores and sample
// spreads, and the decision.
func TuningReport(req *Request) string {
	var b strings.Builder
	fs := req.FunctionSet()
	fmt.Fprintf(&b, "function set %q (%d implementations), selector %s\n",
		fs.Name, len(fs.Fns), req.Selector().Name())
	if req.Decided() {
		fmt.Fprintf(&b, "decision: %s after %d measurements (locked in at t=%.6f)\n",
			req.Winner().Name, req.Selector().Evals(), req.DecidedAt())
	} else {
		fmt.Fprintf(&b, "decision: still learning (%d measurements so far)\n", req.Selector().Evals())
	}
	rep, ok := req.Selector().(Reporter)
	if !ok {
		fmt.Fprintf(&b, "(selector exposes no measurements)\n")
		return b.String()
	}
	scores := rep.Scores()
	idx := make([]int, 0, len(scores))
	for fn := range scores {
		idx = append(idx, fn)
	}
	sort.Slice(idx, func(a, c int) bool { return scores[idx[a]] < scores[idx[c]] })
	for rank, fn := range idx {
		samples := rep.Samples(fn)
		kept := stats.FilterOutliers(samples)
		fmt.Fprintf(&b, "%2d. %-32s score=%.6gs  samples=%d (%d kept)  min=%.6g max=%.6g\n",
			rank+1, fs.Fns[fn].Name, scores[fn], len(samples), len(kept),
			stats.Min(samples), stats.Max(samples))
	}
	return b.String()
}
