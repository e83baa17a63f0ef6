package bench

import (
	"fmt"

	"nbctune/internal/core"
	"nbctune/internal/obs"
)

// Speculative tuning (the forkable-World payoff): instead of interleaving
// the learning phase with the application loop, the world is snapshotted at
// the decision point and every candidate's measurement rounds run on a
// private fork. The per-candidate measurement cost then overlaps across
// workers, so selection latency falls from the sum of all candidates'
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
	// SpecLatency is max over CandidateTime (critical path).
	SpecLatency float64
	// SeqLatency is the sum over CandidateTime (back-to-back measurement).
	SeqLatency float64
	// CandidateTime is each candidate fork's virtual duration, indexed like
	// the function set.
	CandidateTime []float64
	// EvalRounds is the per-candidate measurement budget each fork ran.
	EvalRounds int
	// Workers is the pool size the forks were dispatched to (host-side
	// execution detail; no latency field depends on it).
	Workers int
}

// Speedup is the selection-latency ratio sequential/speculative at the
// critical path (>= worker-per-candidate pool).
func (s *SpecResult) Speedup() float64 {
	if s.SpecLatency <= 0 {
		return 0
	}
	return s.SeqLatency / s.SpecLatency
}

// speculable refuses the specs a speculative run cannot serve: the invalid
// ones, and those whose state cannot cross a snapshot.
func (s MicroSpec) speculable() error {
	switch {
	case s.Observe:
		return fmt.Errorf("bench: speculative runs do not support Observe (recorder spans cannot cross a snapshot)")
	case s.Data:
		return fmt.Errorf("bench: speculative runs do not support Data (payload state cannot cross a snapshot)")
	case s.PDES:
		return fmt.Errorf("bench: speculative runs do not support PDES (a sharded world cannot be snapshotted)")
	}
	return s.validate()
}

// RunSpeculative runs the micro-benchmark with speculative parallel
// candidate evaluation: warm the world, snapshot, measure every candidate on
// a forked copy (dispatched to `workers` host workers), replay the streams
// through the named selector, then run the application loop on a fresh fork
// pinned to the committed winner. Every phase is the §IV-A rank program
// (runLoop) on a different world with a different selection logic.
func RunSpeculative(spec MicroSpec, selector string, workers int) (*SpecResult, error) {
	if err := spec.speculable(); err != nil {
		return nil, err
	}
	hostFS, err := spec.HostFunctionSet()
	if err != nil {
		return nil, err
	}
	// capture measures implementation fn for rounds iterations on w and
	// returns rank 0's samples (all ranks capture identical streams).
	capture := func(w World, fn, rounds int) ([]float64, error) {
		s := spec
		s.Iterations = rounds
		var cap0 *core.Capture
		_, _, err := runLoop(s, w, "", func(rank int, _ *core.FunctionSet) core.Selector {
			c := core.NewCapture(fn)
			if rank == 0 {
				cap0 = c
			}
			return c
		})
		if err != nil {
			return nil, err
		}
		return cap0.Samples(), nil
	}

	// Warm the world — one pinned iteration, so every pool (handles,
	// requests, matcher lists) reaches working size — then snapshot at the
	// quiescent decision point.
	w, err := spec.Platform.NewWorldChaosNamed(spec.Procs, spec.Seed, spec.Placement, spec.Chaos, spec.ChaosSeed)
	if err != nil {
		return nil, err
	}
	if _, err := capture(w, 0, 1); err != nil {
		return nil, err
	}
	snap, err := w.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("bench: world not forkable at the decision point: %w", err)
	}
	base := snap.Now()

	// Candidate measurement over forks. Each call owns a private fork;
	// durs[fn] is written at a distinct index, and runner.Run's barrier
	// orders all writes before the reads below.
	durs := make([]float64, len(hostFS.Fns))
	runCand := func(fn, rounds int) ([]float64, error) {
		feng, fw := snap.Fork()
		samples, err := capture(fw, fn, rounds)
		if err != nil {
			return nil, err
		}
		if len(samples) != rounds {
			return nil, fmt.Errorf("bench: candidate %d fork captured %d samples, want %d", fn, len(samples), rounds)
		}
		durs[fn] = float64(feng.Now()) - base
		return samples, nil
	}
	dec, err := core.Speculate(selector, hostFS, spec.evals(), workers, runCand)
	if err != nil {
		return nil, err
	}

	// The application loop on a fresh fork, pinned to the winner: every
	// iteration runs post-decision.
	_, fw := snap.Fork()
	res, _, err := runLoop(spec, fw, "adcl:"+dec.Audit.Selector, func(int, *core.FunctionSet) core.Selector {
		return &core.FixedSelector{Fn: dec.Winner}
	})
	if err != nil {
		return nil, err
	}
	res.Evals = dec.Evals

	out := &SpecResult{
		Result:        res,
		Audit:         dec.Audit,
		CandidateTime: durs,
		EvalRounds:    dec.Rounds,
		Workers:       workers,
	}
	for _, d := range durs {
		out.SeqLatency += d
		if d > out.SpecLatency {
			out.SpecLatency = d
		}
	}
	return out, nil
}
