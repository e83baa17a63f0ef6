package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"nbctune/internal/fft"
	"nbctune/internal/mpi"
	"nbctune/internal/obs"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

// FFTSpec describes one 3D-FFT application-kernel run (paper §IV-B).
type FFTSpec struct {
	Platform        platform.Platform
	Procs           int
	N               int // grid points per dimension
	Pattern         fft.Pattern
	Flavor          fft.Flavor
	EvalsPerFn      int
	Iterations      int
	ProgressPerTile int
	Seed            int64
	Placement       platform.Placement // Cyclic (default) or Block
	// Observe attaches an obs.Recorder and fills the result's
	// overlap/progress/stall metrics; passive, timing-neutral.
	Observe bool
	// Data runs the kernel on real field data instead of length-only
	// payloads: every transposed byte is transferred and the FFT math
	// actually executes. Virtual times are identical; only host memory and
	// wall-clock cost change.
	Data bool `json:",omitempty"`
	// Chaos/ChaosSeed select a fault/noise injection profile, as in
	// MicroSpec; omitempty keeps clean-spec fingerprints stable.
	Chaos     string `json:",omitempty"`
	ChaosSeed int64  `json:",omitempty"`
	// PDES/Shards select the sharded engine, as in MicroSpec: PDES is part
	// of the spec's identity, the shard count only of its wall-clock.
	PDES   bool `json:",omitempty"`
	Shards int  `json:"-"`
}

func (s FFTSpec) String() string {
	return fmt.Sprintf("fft3d/%s np=%d N=%d %s/%s iters=%d",
		s.Platform.Name, s.Procs, s.N, s.Pattern, s.Flavor, s.Iterations)
}

// FFTResult is the outcome of one FFT kernel run.
type FFTResult struct {
	Spec             FFTSpec
	Label            string
	Total            float64 // barrier-to-barrier, rank-max
	PerIter          float64
	Winner           string // ADCL flavors: decided implementation
	Evals            int
	DecidedIter      int
	PostLearnPerIter float64 // mean per-iteration time after the decision
	LearnTime        float64 // time spent until the decision locked in
	Observed
}

// RunFFT executes the kernel, by default with timing-only payloads (the
// paper's loop of 350 iterations on random data, scaled down; correctness of
// the FFT itself is covered by the fft package's tests on real data). With
// spec.Data set the transform runs on real field data at identical virtual
// times.
func RunFFT(spec FFTSpec) (FFTResult, error) {
	r, _, err := runFFT(spec)
	return r, err
}

// runFFT is RunFFT, additionally returning the run's recorder (nil unless
// spec.Observe is set) for trace export.
func runFFT(spec FFTSpec) (FFTResult, *obs.Recorder, error) {
	if spec.Iterations < 1 {
		return FFTResult{}, nil, fmt.Errorf("bench: iterations must be >= 1")
	}
	label := spec.Flavor.String()
	if spec.Flavor == fft.FlavorADCL || spec.Flavor == fft.FlavorADCLExt {
		label += ":" + fft.SelectorName
	}
	w, err := spec.Platform.Assemble(spec.Procs, spec.Seed, spec.Placement, spec.Chaos, spec.ChaosSeed, spec.PDES, spec.Shards)
	if err != nil {
		return FFTResult{}, nil, err
	}
	var rec *obs.Recorder
	if spec.Observe {
		rec = obs.NewRecorder(spec.Procs)
		w.Observe(rec)
	}
	res := FFTResult{Spec: spec, Label: label, DecidedIter: -1}
	// Per-rank error slots: under PDES, ranks on different shards fail
	// concurrently, so a shared variable would race.
	errs := make([]error, spec.Procs)

	res.Total = timed(w, spec.Procs, func(c *mpi.Comm) func(float64) {
		me := c.Rank()
		pl, err := fft.NewPlan(c, fft.Config{
			N:               spec.N,
			Pattern:         spec.Pattern,
			Flavor:          spec.Flavor,
			EvalsPerFn:      spec.EvalsPerFn,
			ProgressPerTile: spec.ProgressPerTile,
			Virtual:         !spec.Data,
			FlopRate:        spec.Platform.FlopRate,
		})
		if err != nil {
			errs[me] = err
			return nil
		}
		return func(t0 float64) {
			var postSum float64
			var postN int
			for it := 0; it < spec.Iterations; it++ {
				iterStart := c.Now()
				if err := pl.Forward(); err != nil {
					errs[me] = err
					return
				}
				if done, name := pl.Decided(); me == 0 && done {
					if res.DecidedIter < 0 {
						res.DecidedIter = it
						res.Winner = name
						res.LearnTime = iterStart - t0
					}
					postSum += c.Now() - iterStart
					postN++
				}
			}
			if me == 0 {
				res.Evals = pl.Evals()
				if postN > 0 {
					res.PostLearnPerIter = postSum / float64(postN)
				}
				if res.Winner == "" {
					_, res.Winner = pl.Decided()
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return FFTResult{}, nil, err
		}
	}
	res.PerIter = res.Total / float64(spec.Iterations)
	res.Observed = observed(rec)
	return res, rec, nil
}

// FFTComparison runs the kernel under several flavors on the same scenario,
// the structure of Figs 9-12. A non-nil trace forces observation on and
// receives every run's recorder.
func FFTComparison(spec FFTSpec, flavors []fft.Flavor, trace TraceSink) ([]FFTResult, error) {
	out := make([]FFTResult, 0, len(flavors))
	for _, fl := range flavors {
		s := spec
		s.Flavor = fl
		s.Observe = s.Observe || trace != nil
		r, rec, err := runFFT(s)
		if err != nil {
			return nil, err
		}
		if trace != nil {
			name := fmt.Sprintf("%s-np%d-%s_%s", s.Platform.Name, s.Procs, s.Pattern, r.Label)
			if err := trace(name, rec); err != nil {
				return nil, err
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// fftComparisons runs one multi-flavor comparison job per scenario on the
// experiment runner and returns the results indexed [scenario][flavor], in
// submission order regardless of completion order. It is the one runner path
// of the §IV-B sweep and of the Fig 9-12 suites. Traced jobs carry no cache
// key: a cache hit would export nothing.
func fftComparisons(specs []FFTSpec, flavors []fft.Flavor, opt RunOptions, trace TraceSink) ([][]FFTResult, error) {
	jobs := make([]runner.Job, len(specs))
	for i, spec := range specs {
		spec := spec
		jobs[i] = runner.Job{
			Label: spec.String(),
			Key:   FFTComparisonKey(spec, flavors),
			Run:   func() (any, error) { return FFTComparison(spec, flavors, trace) },
			Note:  fftComparisonNote,
		}
		if trace != nil {
			jobs[i].Key = ""
		}
	}
	rrs, err := runner.Run(jobs, opt)
	if err != nil {
		return nil, err
	}
	out := make([][]FFTResult, len(specs))
	for i, rr := range rrs {
		if err := rr.Decode(&out[i]); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", rr.Index, err)
		}
		if len(out[i]) != len(flavors) {
			return nil, fmt.Errorf("scenario %d: comparison produced %d results", rr.Index, len(out[i]))
		}
	}
	return out, nil
}

// fftComparisonNote annotates a progress line with every flavor's simulated
// time and, for the tuned flavors, the winner.
func fftComparisonNote(raw json.RawMessage) string {
	var rs []FFTResult
	if json.Unmarshal(raw, &rs) != nil {
		return ""
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%s=%.3fs", r.Label, r.Total)
		if r.Winner != "" && r.Winner != r.Label {
			parts[i] += " winner=" + r.Winner
		}
	}
	return strings.Join(parts, " ")
}
