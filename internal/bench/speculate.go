package bench

import (
	"fmt"

	"nbctune/internal/core"
	"nbctune/internal/obs"
)

// Speculative tuning: instead of interleaving the learning phase with the
// application loop, every candidate's measurement rounds run on a private
// copy of the world at the decision point — a world assembled from the spec
// and replayed up to that point, which a deterministic simulation makes the
// same state on every copy. The per-candidate measurement cost then overlaps
// across workers, so selection latency falls from the sum of all candidates'
// measurement time to (ideally) the slowest single candidate — while the
// decision itself replays through the unmodified selector and is
// byte-identical for every worker count.

// SpecResult is the outcome of one speculative tuning run. Result is a plain
// MicroResult (the committed-winner execution phase), so speculative runs
// slot into every existing report path; the extra fields quantify the
// selection phase. All latency fields are virtual (simulated) seconds and
// independent of the host worker count: SeqLatency is the cost of measuring
// the candidates back to back (what the in-line learning phase pays), and
// SpecLatency is the critical path — the slowest single candidate — which a
// pool of >= one-worker-per-candidate achieves.
type SpecResult struct {
	Result MicroResult
	// Audit is the selection log: fork and join events bracketing the inner
	// selector's sample/estimate/prune/decide trail.
	Audit *obs.Audit
	// Recorder is the committed-winner loop's recorder (spec.Observe), for
	// trace export; nil otherwise.
	Recorder *obs.Recorder `json:"-"`
	// SpecLatency is max over CandidateTime (critical path).
	SpecLatency float64
	// SeqLatency is the sum over CandidateTime (back-to-back measurement).
	SeqLatency float64
	// CandidateTime is each candidate's virtual measurement duration, indexed
	// like the function set.
	CandidateTime []float64
	// EvalRounds is the per-candidate measurement budget each candidate ran.
	EvalRounds int
}

// Speedup is the selection-latency ratio sequential/speculative at the
// critical path (>= worker-per-candidate pool).
func (s *SpecResult) Speedup() float64 {
	if s.SpecLatency <= 0 {
		return 0
	}
	return s.SeqLatency / s.SpecLatency
}

// RunSpeculative runs the micro-benchmark with speculative parallel
// candidate evaluation: measure every candidate on a world of its own at the
// decision point (dispatched to `workers` host workers, <= 0: GOMAXPROCS;
// nothing in the result depends on the count), replay the streams
// through the named selector, then run the application loop, pinned to the
// committed winner, on one more such world. Every phase is the §IV-A rank
// program (runLoop) under a different selection logic.
func RunSpeculative(spec MicroSpec, selector string, workers int) (*SpecResult, error) {
	hostFS, err := spec.HostFunctionSet()
	if err != nil {
		return nil, err
	}
	// phase assembles the spec's world, brings it to the decision point —
	// one measured iteration of implementation 0, so every pool (handles,
	// requests, matcher lists) is at working size — runs s's loop there and
	// releases the world, returning the loop's result and virtual duration.
	phase := func(s MicroSpec, label string, mkSel selectorFor) (MicroResult, *obs.Recorder, float64, error) {
		w, err := s.World()
		if err != nil {
			return MicroResult{}, nil, 0, err
		}
		warm := s
		warm.Iterations, warm.Observe = 1, false
		if _, _, err := runLoop(warm, w, "", func(int, *core.FunctionSet) (core.Selector, error) {
			return core.NewCapture(0), nil
		}); err != nil {
			return MicroResult{}, nil, 0, err
		}
		base := w.Now()
		res, rec, err := runLoop(s, w, label, mkSel)
		dur := w.Now() - base
		w.Release()
		return res, rec, dur, err
	}

	// Candidate measurement. Each call owns its world; durs[fn] is written at
	// a distinct index, and runner.Run's barrier orders all writes before the
	// reads below. All ranks capture identical streams; rank 0's is returned.
	durs := make([]float64, len(hostFS.Fns))
	runCand := func(fn, rounds int) ([]float64, error) {
		s := spec
		s.Iterations, s.Observe = rounds, false
		var cap0 *core.Capture
		_, _, dur, err := phase(s, "", func(rank int, _ *core.FunctionSet) (core.Selector, error) {
			c := core.NewCapture(fn)
			if rank == 0 {
				cap0 = c
			}
			return c, nil
		})
		if err != nil {
			return nil, err
		}
		if n := len(cap0.Samples()); n != rounds {
			return nil, fmt.Errorf("bench: candidate %d captured %d samples, want %d", fn, n, rounds)
		}
		durs[fn] = dur
		return cap0.Samples(), nil
	}
	dec, err := core.Speculate(selector, hostFS, spec.evals(), workers, runCand)
	if err != nil {
		return nil, err
	}

	// The application loop, pinned to the winner: every iteration runs
	// post-decision.
	res, rec, _, err := phase(spec, "adcl:"+dec.Audit.Selector, pinned(dec.Winner))
	if err != nil {
		return nil, err
	}
	res.Evals = dec.Evals

	out := &SpecResult{
		Result:        res,
		Audit:         dec.Audit,
		Recorder:      rec,
		CandidateTime: durs,
		EvalRounds:    dec.Rounds,
	}
	for _, d := range durs {
		out.SeqLatency += d
		if d > out.SpecLatency {
			out.SpecLatency = d
		}
	}
	return out, nil
}
