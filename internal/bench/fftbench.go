package bench

import (
	"fmt"

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
}

func (s FFTSpec) String() string {
	return fmt.Sprintf("fft3d/%s np=%d N=%d %s/%s iters=%d",
		s.Platform.Name, s.Procs, s.N, s.Pattern, s.Flavor, s.Iterations)
}

// FFTResult is the outcome of one FFT kernel run.
type FFTResult struct {
	Spec  FFTSpec
	Label string // the flavor, with ":<selector>" for a tuned one
	Loop
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
// spec.Observe is set) for trace export: the kernel's forward transform is
// the iteration of the timed loop.
func runFFT(spec FFTSpec) (FFTResult, *obs.Recorder, error) {
	if spec.Iterations < 1 {
		return FFTResult{}, nil, fmt.Errorf("bench: iterations must be >= 1")
	}
	label := spec.Flavor.String()
	if spec.Flavor == fft.FlavorADCL || spec.Flavor == fft.FlavorADCLExt {
		label += ":" + fft.SelectorName
	}
	w, err := spec.Platform.Assemble(spec.Procs, spec.Seed, spec.Placement, spec.Chaos, spec.ChaosSeed)
	if err != nil {
		return FFTResult{}, nil, err
	}
	l, rec, err := timedLoop(w, spec.Procs, spec.Iterations, spec.Observe, func(c *mpi.Comm, _ func(error)) (func() error, func() (string, int), error) {
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
			return nil, nil, err
		}
		return pl.Forward, func() (string, int) {
			_, name := pl.Decided()
			return name, pl.Evals()
		}, nil
	})
	w.Release()
	return FFTResult{Spec: spec, Label: label, Loop: l}, rec, err
}

// fftJob is the experiment-runner job of one kernel run. A non-nil trace
// forces observation on and receives the run's recorder; a traced job
// carries no cache key, since a cache hit would export nothing.
func fftJob(spec FFTSpec, trace TraceSink) runner.Job {
	label, key := spec.String(), FFTKey(spec)
	if trace != nil {
		spec.Observe, key = true, ""
	}
	return runner.Job{Label: label, Key: key, Run: func() (any, error) {
		r, rec, err := runFFT(spec)
		if err != nil || trace == nil {
			return r, err
		}
		return r, trace(fmt.Sprintf("%s-np%d-%s_%s", spec.Platform.Name, spec.Procs, spec.Pattern, r.Label), rec)
	}}
}

// fftMatrix runs every flavor on every scenario, the structure of Figs 9-12
// and of the §IV-B sweep: one runner job per (scenario, flavor), the results
// indexed [scenario][flavor].
func fftMatrix(specs []FFTSpec, flavors []fft.Flavor, opt RunOptions, trace TraceSink) ([][]FFTResult, error) {
	cells := make([][]runner.Job, len(specs))
	for i, spec := range specs {
		for _, fl := range flavors {
			spec.Flavor = fl
			cells[i] = append(cells[i], fftJob(spec, trace))
		}
	}
	return matrix[FFTResult](cells, opt)
}
