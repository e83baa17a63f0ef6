// Package runner is the experiment execution engine behind the sweep
// drivers: it runs independent, deterministic simulation jobs on a worker
// pool sized by GOMAXPROCS, isolates per-job panics (a deterministic job that
// panicked would panic again, so nothing is retried), streams progress with
// an ETA to stderr, and persists every completed result in a
// content-addressed on-disk cache so re-runs and interrupted sweeps resume
// for free.
//
// Results come back indexed by submission order regardless of completion
// order, so aggregation over them is byte-identical whether a sweep ran on
// one worker or sixteen. That property — plus the determinism of
// sim.Engine for a fixed seed — is what makes caching sound: a job's
// fingerprint covers its entire input spec, so under one build equal
// fingerprints imply equal results, and the cache serves an entry only to the
// build that wrote it.
package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Job is one unit of experiment work.
type Job struct {
	// Label identifies the job in progress lines and error messages.
	Label string
	// Key is the job's content address (see Fingerprint). Empty disables
	// caching for this job; it always runs.
	Key string
	// Run computes the result. It must be pure with respect to Key: equal
	// keys must compute equal results. The returned value is JSON-encoded
	// for caching and for the Result, so it must be JSON-marshalable.
	Run func() (any, error)
	// Note, when non-nil, renders an extra annotation for the progress line
	// from the job's encoded result (e.g. virtual time, winner).
	Note func(value json.RawMessage) string
}

// Options configures a Run.
type Options struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, is consulted before running a job and updated
	// after each completion.
	Cache *Cache
	// Progress, when non-nil, receives one line per completed job:
	// done/total, the label, per-job wall time, cache hits, and an ETA.
	Progress io.Writer
}

// CheckWorkers vets a command's worker-count flag (-jobs),
// whose convention is 0 = GOMAXPROCS and n > 0 = n workers: a negative count
// is refused instead of running as GOMAXPROCS.
func CheckWorkers(flag string, n int) error {
	if n < 0 {
		return fmt.Errorf("-%s %d: a worker count is 0 (GOMAXPROCS) or positive", flag, n)
	}
	return nil
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Result is the outcome of one job.
type Result struct {
	Index  int             // position in the submitted job slice
	Label  string          // copied from the job
	Key    string          // copied from the job
	Value  json.RawMessage // JSON-encoded result (also what was cached)
	Err    error           // non-nil if the job failed or panicked
	Cached bool            // true if served from the store without running
	Wall   time.Duration   // wall-clock time spent on this job
}

// Decode unmarshals a result value into out.
func (r Result) Decode(out any) error {
	if r.Err != nil {
		return r.Err
	}
	return json.Unmarshal(r.Value, out)
}

// Run executes the jobs and returns their results indexed by submission
// order. All jobs run to completion even if some fail; the returned error is
// the lowest-indexed job error (deterministic regardless of scheduling), or
// nil if every job succeeded.
func Run(jobs []Job, opt Options) ([]Result, error) {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	workers := opt.workers(len(jobs))
	prog := newProgress(opt.Progress, len(jobs), workers)

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(i, jobs[i], opt)
				prog.completed(results[i], jobs[i].Note)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("runner: job %d (%s): %w", i, jobs[i].Label, results[i].Err)
		}
	}
	return results, nil
}

// runOne serves one job from the cache or executes it.
func runOne(i int, job Job, opt Options) Result {
	res := Result{Index: i, Label: job.Label, Key: job.Key}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()

	if opt.Cache != nil && job.Key != "" {
		if raw, ok := opt.Cache.Get(job.Key); ok {
			res.Value = raw
			res.Cached = true
			return res
		}
	}
	v, err := attempt(job)
	if err != nil {
		res.Err = err
		return res
	}
	if res.Value, err = json.Marshal(v); err != nil {
		res.Err = fmt.Errorf("encode result: %w", err)
	} else if opt.Cache != nil && job.Key != "" {
		res.Err = opt.Cache.Put(job.Key, job.Label, res.Value)
	}
	return res
}

// attempt runs the job with panic isolation.
func attempt(job Job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return job.Run()
}
