package core

import (
	"fmt"
	"math"

	"nbctune/internal/obs"
	"nbctune/internal/stats"
)

// Adaptive re-tuning under drift. A tuned winner is only the winner for the
// environment it was measured in; when the machine drifts (a link degrades,
// a neighbor job lands on the switch), the committed choice can silently
// become the worst one. Adaptive wraps any learning selector with a drift
// monitor: after the inner selector decides, every subsequent iteration of
// the committed winner is still observed, reduced over tumbling windows with
// the same robust score used for tuning, and compared against the
// tuning-time estimate. When the windowed score departs from that baseline
// by more than driftFactor — in either direction; an environment
// that *improved* can also have a new best implementation — measurement is
// re-opened with a fresh inner selector and the operation re-tunes.
//
// State machine (documented in DESIGN.md §4):
//
//	LEARN ──inner decides──▶ MONITOR ──window departs baseline──▶ LEARN
//
// with the audit logging decide (inner), drift, and retune transitions.
//
// Lockstep: like the inner selectors, one Adaptive instance runs per rank.
// All instances must re-open measurement at the same iteration, or ranks
// would disagree on the implementation of a collective and deadlock. That
// holds exactly when every rank feeds identical measurement values — which
// the max-allreduce of decision synchronization provides — so
// StopMaybeSynced keeps syncing for as long as a monitor is attached, not
// just during the initial learning phase.

// monitor is implemented by selectors that keep consuming measurements of
// the committed winner after deciding (Adaptive is the only one).
// Timer.StopWith feeds them every post-decision interval, and because their
// re-tune trigger must fire at the same iteration on every rank,
// StopMaybeSynced keeps max-reducing for as long as one is attached.
type monitor interface{ Monitor(fn int, t float64) }

// driftWindow is the number of committed-winner iterations reduced into one
// monitoring score.
const driftWindow = 8

// driftFactor is the departure factor that triggers a re-tune: the windowed
// score must exceed baseline*driftFactor or fall below baseline/driftFactor.
const driftFactor = 1.5

// Adaptive wraps a selector factory with windowed drift detection and
// re-tuning. Build with NewAdaptive; use like any other Selector.
type Adaptive struct {
	mk    func() Selector
	inner Selector

	committed bool
	winner    int
	baseline  float64 // NaN: first full monitoring window calibrates it
	window    []float64

	pastEvals int
	retunes   int
	audit     *obs.Audit
}

// NewAdaptive builds an adaptive selector. mk must return a fresh instance
// of the inner learning selector on every call (one per tuning round).
func NewAdaptive(mk func() Selector) *Adaptive {
	return &Adaptive{mk: mk, inner: mk(), baseline: math.NaN()}
}

func (s *Adaptive) Name() string { return "adaptive+" + s.inner.Name() }

// Next delegates to the inner selector while learning and pins the
// committed winner while monitoring.
func (s *Adaptive) Next() (int, bool) {
	if s.committed {
		return s.winner, true
	}
	fn, decided := s.inner.Next()
	if decided {
		s.commit()
		return s.winner, true
	}
	return fn, false
}

// Record delegates to the inner selector while learning; once committed,
// measurements arrive through Monitor instead (Timer.StopWith routes them).
func (s *Adaptive) Record(fn int, t float64) {
	if s.committed {
		s.Monitor(fn, t)
		return
	}
	s.inner.Record(fn, t)
	if _, decided := s.inner.Next(); decided {
		s.commit()
	}
}

// commit latches the inner selector's decision and arms the drift monitor.
func (s *Adaptive) commit() {
	s.committed = true
	s.winner = s.inner.Winner()
	s.window = s.window[:0]
	s.baseline = math.NaN()
	if sc, ok := s.inner.(Reporter); ok {
		if v := sc.Score(s.winner); v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			s.baseline = v
		}
	}
	if s.retunes > 0 {
		s.audit.Retune(s.winner, s.inner.Evals())
	}
}

// Monitor consumes one post-decision measurement of the committed winner.
// Full windows are reduced with the tuning-time robust score; a window that
// departs the baseline by more than the factor re-opens measurement.
func (s *Adaptive) Monitor(fn int, t float64) {
	if !s.committed || fn != s.winner {
		return
	}
	s.window = append(s.window, t)
	if len(s.window) < driftWindow {
		return
	}
	score := stats.RobustScore(s.window)
	s.window = s.window[:0]
	if math.IsNaN(s.baseline) {
		// No usable tuning-time estimate (e.g. a FixedSelector inner):
		// the first monitoring window becomes the baseline.
		s.baseline = score
		s.audit.Phase(fmt.Sprintf("drift baseline calibrated to %.4g over %d laps", score, driftWindow))
		return
	}
	if score > s.baseline*driftFactor || score < s.baseline/driftFactor {
		s.audit.Drift(s.winner, score, fmt.Sprintf("baseline %.4g departed by factor > %.3g", s.baseline, driftFactor))
		s.reopen()
	}
}

// reopen discards the committed decision and starts a fresh tuning round.
func (s *Adaptive) reopen() {
	s.pastEvals += s.inner.Evals()
	s.retunes++
	s.committed = false
	s.baseline = math.NaN()
	s.inner = s.mk()
	if s.audit != nil {
		if au, ok := s.inner.(auditable); ok {
			au.setAudit(s.audit)
		}
	}
}

// Winner returns the most recently committed winner. During a re-tuning
// round it keeps reporting the previous winner (a caller asking mid-round
// gets the last committed choice, never a half-learned one).
func (s *Adaptive) Winner() int { return s.winner }

// Evals returns measurements consumed across all tuning rounds.
func (s *Adaptive) Evals() int { return s.pastEvals + s.inner.Evals() }

func (s *Adaptive) setAudit(a *obs.Audit) {
	s.audit = a
	if au, ok := s.inner.(auditable); ok {
		au.setAudit(a)
	}
}
