package bench

import (
	"fmt"
	"slices"

	"nbctune/internal/mpi"
	"nbctune/internal/obs"
	"nbctune/internal/runner"
)

// RunOptions configures how a sweep or verification run executes: worker
// count (<= 0 means GOMAXPROCS, 1 sequential, as the commands' -jobs flag
// takes it), result caching, and progress streaming. The zero value runs on
// GOMAXPROCS workers with no cache and no progress.
//
// Parallelism is sound because every scenario is an independent,
// deterministic sim.Engine run: the aggregate built from the ordered
// results is byte-identical whatever the worker count.
type RunOptions = runner.Options

// Loop is what the timed rank loop measures of every kernel run: the
// barrier-to-barrier time and rank 0's record of its selection logic (a
// fixed run decides its one implementation at once).
type Loop struct {
	Total            float64 // barrier-to-barrier loop time, rank-max (seconds)
	PerIter          float64 // Total / Iterations
	Winner           string  // decided implementation
	Evals            int     // learning-phase measurements
	DecidedIter      int     // iteration at which the winner locked in
	PostLearnPerIter float64 // mean per-iteration time after the decision
	LearnTime        float64 // time from the loop's start to the decision
	Observed
}

// Observed holds a result's observability metrics, filled only when the
// spec's Observe is set; the recorder itself (Metrics) holds the rest.
type Observed struct {
	Overlap float64 `json:",omitempty"` // aggregate fraction of comm hidden under compute
}

// observed derives a result's metrics from the run's recorder (nil: none).
func observed(rec *obs.Recorder) Observed {
	if rec == nil {
		return Observed{}
	}
	return Observed{rec.Metrics().Overlap}
}

// rankKernel sets one rank of a timed run up. It returns the rank's
// iteration, whose error ends that rank's loop and fails the run, and a read
// of its selection logic: the winner's name ("" while learning) and the
// measurements taken. record keeps the run's first error without ending any
// loop, so a data-mode mismatch leaves every rank iterating and none waits
// on a collective that another skipped.
type rankKernel func(c *mpi.Comm, record func(error)) (step func() error, decision func() (string, int), err error)

// timedLoop is the one timed rank loop of every bench kernel: on every rank
// of the already assembled world w it sets kernel up, barriers, runs iters
// iterations and barriers again. It owns the run's recorder (attached when
// observe is set, and returned), its first error and rank 0's decision
// record. Programs may run back to back on one world.
func timedLoop(w *mpi.World, procs, iters int, observe bool, kernel rankKernel) (Loop, *obs.Recorder, error) {
	var rec *obs.Recorder
	if observe {
		rec = obs.NewRecorder(procs)
		w.Observe(rec)
	}
	l := Loop{DecidedIter: -1}
	var runErr error
	record := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	starts, ends := make([]float64, procs), make([]float64, procs)
	w.Start(func(c *mpi.Comm) {
		me := c.Rank()
		step, decision, err := kernel(c, record)
		if err != nil {
			record(err)
			return
		}
		c.Barrier()
		starts[me] = c.Now()
		var postSum float64
		var postN int
		for it := 0; it < iters; it++ {
			iterStart := c.Now()
			if err := step(); err != nil {
				record(err)
				break
			}
			if me != 0 {
				continue
			}
			if name, _ := decision(); name != "" {
				if l.DecidedIter < 0 {
					l.DecidedIter, l.LearnTime = it, iterStart-starts[me]
				}
				postSum += c.Now() - iterStart
				postN++
			}
		}
		if me == 0 {
			l.Winner, l.Evals = decision()
			if postN > 0 {
				l.PostLearnPerIter = postSum / float64(postN)
			}
		}
		c.Barrier()
		ends[me] = c.Now()
	})
	w.Run()
	if runErr != nil {
		return Loop{}, nil, fmt.Errorf("bench: %w", runErr)
	}
	for me := range starts {
		l.Total = max(l.Total, ends[me]-starts[me])
	}
	l.PerIter = l.Total / float64(iters)
	l.Observed = observed(rec)
	return l, rec, nil
}

// matrix runs cells[i][j] as one runner job each and decodes their results
// indexed the same way, in submission order regardless of completion order.
func matrix[R any](cells [][]runner.Job, opt RunOptions) ([][]R, error) {
	rs, err := runner.Run(slices.Concat(cells...), opt)
	if err != nil {
		return nil, err
	}
	out := make([][]R, len(cells))
	for i, jobs := range cells {
		out[i] = make([]R, len(jobs))
		for j := range jobs {
			if err := rs[0].Decode(&out[i][j]); err != nil {
				return nil, fmt.Errorf("%s: %w", jobs[j].Label, err)
			}
			rs = rs[1:]
		}
	}
	return out, nil
}

// fingerprint content-addresses a job spec, or returns "" (uncacheable) if
// any part fails to serialize — a missing key degrades to always-run, never
// to a colliding address.
func fingerprint(parts ...any) string {
	k, err := runner.Fingerprint(parts...)
	if err != nil {
		return ""
	}
	return k
}

// VerificationKey is the content address of a full verification run (all
// fixed implementations plus the given selectors) for a scenario.
func VerificationKey(spec MicroSpec, selectors []string) string {
	return fingerprint("verification", spec, selectors)
}

// FixedKey is the content address of one fixed-implementation run.
func FixedKey(spec MicroSpec, fn int) string {
	return fingerprint("fixed", spec, fn)
}

// ADCLKey is the content address of one runtime-selection run. A speculative
// run's name carries its prefix, so it has its own address; the candidate
// worker count is not part of it, as no result depends on it.
func ADCLKey(spec MicroSpec, selector string) string {
	return fingerprint("adcl", spec, selector)
}

// FFTKey is the content address of one 3D-FFT kernel run; the spec names
// its flavor.
func FFTKey(spec FFTSpec) string {
	return fingerprint("fft", spec)
}
