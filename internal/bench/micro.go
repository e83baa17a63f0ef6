// Package bench implements the paper's measurement harnesses: the §IV-A
// overlap micro-benchmark (initiate a non-blocking collective, compute in
// chunks with progress calls in between, wait), the verification-run
// methodology of Fig 2, and the table reporting used by the cmd/
// drivers and the repository's benchmark suite. It is layer S7 of the
// substitution map (DESIGN.md §1).
//
// Invariant: a spec fully determines its result — runs are deterministic
// per seed, and attaching observation (MicroSpec.Observe) is passive: it
// never changes a simulated timestamp, so observed and unobserved runs of the
// same spec report identical times (bench's own tests pin this).
package bench

import (
	"fmt"
	"math"

	"nbctune/internal/core"
	"nbctune/internal/mpi"
	"nbctune/internal/obs"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

// MicroSpec describes one micro-benchmark configuration.
type MicroSpec struct {
	Platform       platform.Platform
	Procs          int
	MsgSize        int // per process pair (ialltoall) or total (ibcast)
	Op             string
	ComputePerIter float64 // seconds of application compute per iteration
	Iterations     int
	ProgressCalls  int // progress calls per iteration (>= 1)
	Seed           int64
	EvalsPerFn     int                // ADCL measurements per implementation (default 3)
	Placement      platform.Placement // Cyclic (default) or Block
	// Imbalance models process arrival patterns (Faraj et al., cited in the
	// paper's §I): each rank's compute phase is stretched by up to this
	// fraction, deterministically staggered across ranks, so ranks enter
	// the collective at different times.
	Imbalance float64
	// Observe attaches an obs.Recorder to the run and fills the result's
	// overlap/progress/stall metrics. Recording is passive, so the timing
	// fields are identical with or without it.
	Observe bool
	// Data attaches real payload storage to every buffer and verifies the
	// received bytes after each iteration. Every simulated cost is computed
	// from sizes, never from contents, so timing results are identical to
	// the default length-only (virtual) runs.
	Data bool `json:",omitempty"`
	// Chaos names a fault/noise injection profile (internal/chaos/profiles)
	// applied to the run; "" or "off" is the clean machine. ChaosSeed seeds
	// the injector's streams. Both are omitempty so clean specs fingerprint
	// (and cache) identically to specs that predate the chaos layer.
	Chaos     string `json:",omitempty"`
	ChaosSeed int64  `json:",omitempty"`
	// Mocks extends the op's function set with the named guideline mocks
	// (core mock catalog), the programmatic form of the guideline engine's
	// violations→function-set feedback loop. Omitempty: mock-free specs
	// fingerprint identically to specs that predate the guideline layer.
	Mocks []string `json:",omitempty"`
}

// Names of the catalogue ops (core.OpByName) the scenario grids use; a spec
// may name any op of the catalogue. The -scalable variants select from the
// scale-oriented function sets (core/funcsets.go) that add the O(log n)
// and topology-aware algorithms; MsgSize is the per-rank block for
// iallgather-scalable and is ignored by ibarrier.
const (
	OpIalltoall          = "ialltoall"
	OpIbcast             = "ibcast"
	OpIbcastScalable     = "ibcast-scalable"
	OpIallgatherScalable = "iallgather-scalable"
	OpIbarrier           = "ibarrier"
)

func (s MicroSpec) String() string {
	return fmt.Sprintf("%s/%s np=%d msg=%dB compute=%gs progress=%d iters=%d",
		s.Op, s.Platform.Name, s.Procs, s.MsgSize, s.ComputePerIter, s.ProgressCalls, s.Iterations)
}

// validate is the one place a spec's combinations are refused; the drivers
// pass their flags through and report what it says.
func (s MicroSpec) validate() error {
	if s.Procs < 2 {
		return fmt.Errorf("bench: need at least 2 procs")
	}
	if s.Iterations < 1 || s.ProgressCalls < 1 {
		return fmt.Errorf("bench: iterations and progress calls must be >= 1")
	}
	if s.MsgSize < 0 || !(s.ComputePerIter >= 0) || math.IsInf(s.ComputePerIter, 1) {
		return fmt.Errorf("bench: message size and compute time must be non-negative and finite, have %d bytes and %g s", s.MsgSize, s.ComputePerIter)
	}
	op, err := core.OpByName(s.Op)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := op.CheckSize(s.Procs, s.MsgSize); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := op.CheckMocks(s.Mocks); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if s.Data && op.Pattern == nil {
		return fmt.Errorf("bench: op %q declares no data pattern to verify", s.Op)
	}
	return nil
}

func (s MicroSpec) evals() int {
	if s.EvalsPerFn > 0 {
		return s.EvalsPerFn
	}
	return 3
}

// World assembles the spec's simulated machine (platform.Assemble). It is
// the one place a driver or harness turns a spec into a machine, so it is
// also where an unsupported spec is refused. Programs may run back to back
// on one world: Now is where the last one ended and the next one starts.
func (s MicroSpec) World() (*mpi.World, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s.Platform.Assemble(s.Procs, s.Seed, s.Placement, s.Chaos, s.ChaosSeed)
}

// payload allocates an n-byte buffer descriptor in the spec's data mode:
// length-only by default, real storage with Data set.
func (s MicroSpec) payload(n int) mpi.Buf {
	if s.Data {
		return mpi.Bytes(make([]byte, n))
	}
	return mpi.Virtual(n)
}

// HostFunctionSet is the spec's function set outside any run, for its names
// and for host-side selector replay: the op's declaration bound with no
// communicator (core.Op.Shape), so its functions must never start.
func (s MicroSpec) HostFunctionSet() (*core.FunctionSet, error) {
	op, err := core.OpByName(s.Op)
	if err != nil {
		return nil, err
	}
	return op.Shape(s.Procs, s.MsgSize, s.Mocks)
}

// FunctionNames lists the implementation names of the spec's function set,
// in index order, without running a simulation.
func (s MicroSpec) FunctionNames() []string {
	fs, err := s.HostFunctionSet()
	if err != nil {
		panic(err)
	}
	return fs.FunctionNames()
}

// MicroResult is the outcome of one micro-benchmark run.
type MicroResult struct {
	Spec MicroSpec
	Impl string // implementation or "adcl:<selector>"
	Loop
}

// Iterate runs one §IV-A benchmark iteration on rank c: initiate, compute in
// chunks with a progress call after each, wait, and record the (max-reduced
// while still learning) interval into the request's selector.
func (s MicroSpec) Iterate(c *mpi.Comm, req *core.Request, timer *core.Timer) {
	chunk := s.ComputePerIter / float64(s.ProgressCalls)
	if s.Imbalance > 0 && s.Procs > 1 {
		// Deterministic stagger (process arrival patterns): rank r computes
		// Imbalance*r/(P-1) longer than rank 0, so ranks enter the
		// collective at different times.
		chunk *= 1 + s.Imbalance*float64(c.Rank())/float64(s.Procs-1)
	}
	timer.Start()
	req.Init()
	for k := 0; k < s.ProgressCalls; k++ {
		c.Compute(chunk)
		req.Progress()
	}
	req.Wait()
	core.StopMaybeSynced(c, timer, req)
}

// selectorFor picks a rank's selection logic once its function set is built.
type selectorFor func(rank int, fs *core.FunctionSet) (core.Selector, error)

// pinned is the selection logic of a fixed-implementation run; the index is
// checked against the set the run itself built.
func pinned(fn int) selectorFor {
	return func(_ int, fs *core.FunctionSet) (core.Selector, error) {
		if fn < 0 || fn >= len(fs.Fns) {
			return nil, fmt.Errorf("implementation index %d out of range (%d impls)", fn, len(fs.Fns))
		}
		return &core.FixedSelector{Fn: fn}, nil
	}
}

// runLoop is the §IV-A rank program: on every rank of the already assembled
// world w it builds the op's function set, lets mkSel pick the selection
// logic (rank 0's result is the one reported), and iterates in the timed
// loop. It returns the aggregate result, plus the run's recorder when
// spec.Observe is set (nil otherwise).
func runLoop(spec MicroSpec, w *mpi.World, label string, mkSel selectorFor) (MicroResult, *obs.Recorder, error) {
	op, err := core.OpByName(spec.Op)
	if err != nil {
		return MicroResult{}, nil, err
	}
	l, rec, err := timedLoop(w, spec.Procs, spec.Iterations, spec.Observe, func(c *mpi.Comm, record func(error)) (func() error, func() (string, int), error) {
		me := c.Rank()
		send, recv := op.Buffers(spec.Procs, spec.MsgSize, spec.payload)
		fs, err := op.Build(c, send, recv, 0, spec.Mocks)
		if err != nil {
			return nil, nil, err
		}
		sel, err := mkSel(me, fs)
		if err != nil {
			return nil, nil, err
		}
		req := core.MustRequest(fs, sel, c.Now)
		timer := core.MustTimer(c.Now, req)
		if spec.Data {
			op.Fill(me, 0, spec.MsgSize, send)
		}
		step := func() error {
			spec.Iterate(c, req, timer)
			if spec.Data {
				record(op.Check(me, 0, spec.MsgSize, recv))
			}
			return nil
		}
		return step, func() (string, int) {
			if wf := req.Winner(); wf != nil {
				return wf.Name, sel.Evals()
			}
			return "", sel.Evals()
		}, nil
	})
	return MicroResult{Spec: spec, Impl: label, Loop: l}, rec, err
}

// run assembles the spec's world, runs the §IV-A loop on it and releases it.
func (s MicroSpec) run(label string, mkSel selectorFor) (MicroResult, *obs.Recorder, error) {
	w, err := s.World()
	if err != nil {
		return MicroResult{}, nil, err
	}
	r, rec, err := runLoop(s, w, label, mkSel)
	w.Release()
	return r, rec, err
}

// RunFixed runs the benchmark pinned to implementation index fn.
func RunFixed(spec MicroSpec, fn int) (MicroResult, error) {
	r, _, err := runFixed(spec, fn)
	return r, err
}

// runFixed is RunFixed, additionally returning the run's recorder (nil unless
// spec.Observe is set) for trace export. The run names its implementation.
func runFixed(spec MicroSpec, fn int) (MicroResult, *obs.Recorder, error) {
	r, rec, err := spec.run("", pinned(fn))
	r.Impl = r.Winner
	return r, rec, err
}

// RunADCL runs the benchmark under a runtime selection logic: any name
// core.SelectorByName resolves ("brute-force", "attr-heuristic",
// "factorial-2k", "adaptive+<inner>", …), or "speculative+<inner>", which
// measures the candidates on worlds of their own (RunSpeculative, on a
// GOMAXPROCS pool) before a loop that runs entirely post-decision.
func RunADCL(spec MicroSpec, selector string) (MicroResult, error) {
	if inner, ok := core.SpeculativeInner(selector); ok {
		sr, err := RunSpeculative(spec, inner, 0)
		if err != nil {
			return MicroResult{}, err
		}
		return sr.Result, nil
	}
	r, _, err := spec.run("adcl:"+selector, func(_ int, fs *core.FunctionSet) (core.Selector, error) {
		return core.SelectorByName(selector, fs, spec.evals())
	})
	return r, err
}

// TraceSink receives the recorder of one traced simulation; cell names the
// run (scenario and implementation or flavor).
type TraceSink func(cell string, rec *obs.Recorder) error

// fixedJob is the experiment-runner job of one fixed-implementation run. A
// non-nil trace forces observation on and receives the run's recorder; a
// traced job carries no cache key, since a cache hit would export nothing.
func fixedJob(spec MicroSpec, fn int, impl string, trace TraceSink) runner.Job {
	label, key := fmt.Sprintf("%s fixed=%s", spec, impl), FixedKey(spec, fn)
	if trace != nil {
		spec.Observe, key = true, ""
	}
	return runner.Job{Label: label, Key: key, Run: func() (any, error) {
		r, rec, err := runFixed(spec, fn)
		if err != nil || trace == nil {
			return r, err
		}
		cell := fmt.Sprintf("%s-%s-np%d-msg%d-pc%d_%s", spec.Op, spec.Platform.Name, spec.Procs, spec.MsgSize, spec.ProgressCalls, impl)
		return r, trace(cell, rec)
	}}
}

// fixedJobs is one fixedJob per implementation of the spec's function set,
// of its first limit implementations when limit > 0.
func (s MicroSpec) fixedJobs(limit int, trace TraceSink) ([]runner.Job, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	fs, err := s.HostFunctionSet()
	if err != nil {
		return nil, err
	}
	names := fs.FunctionNames()
	if limit > 0 && limit < len(names) {
		names = names[:limit]
	}
	jobs := make([]runner.Job, len(names))
	for fn, impl := range names {
		jobs[fn] = fixedJob(s, fn, impl, trace)
	}
	return jobs, nil
}

// FixedMatrix measures the fixed implementations of every scenario on the
// experiment runner, one job per (scenario, implementation), and returns the
// results indexed [scenario][implementation] in submission order regardless
// of completion order. limit > 0 measures only the first limit
// implementations of each function set.
func FixedMatrix(specs []MicroSpec, limit int, opt RunOptions, trace TraceSink) ([][]MicroResult, error) {
	cells := make([][]runner.Job, len(specs))
	for i, spec := range specs {
		var err error
		if cells[i], err = spec.fixedJobs(limit, trace); err != nil {
			return nil, err
		}
	}
	return matrix[MicroResult](cells, opt)
}

// Verification reproduces the paper's verification-run methodology (Fig 2):
// every fixed implementation plus the ADCL selectors on the same scenario.
type Verification struct {
	Spec  MicroSpec
	Fixed []MicroResult
	ADCL  []MicroResult
	Best  int // index into Fixed of the fastest fixed implementation
}

// RunVerificationOpts executes the verification run on the experiment
// runner, fanning out one job per fixed implementation and one per ADCL
// selector. Every measurement is an independent simulation, so intra-run
// parallelism and per-measurement caching are both sound.
func RunVerificationOpts(spec MicroSpec, opt RunOptions, selectors ...string) (*Verification, error) {
	if len(selectors) == 0 {
		selectors = []string{"brute-force", "attr-heuristic"}
	}
	jobs, err := spec.fixedJobs(0, nil)
	if err != nil {
		return nil, err
	}
	fixed := len(jobs)
	for _, sel := range selectors {
		sel := sel
		jobs = append(jobs, runner.Job{
			Label: fmt.Sprintf("%s adcl=%s", spec, sel),
			Key:   ADCLKey(spec, sel),
			Run:   func() (any, error) { return RunADCL(spec, sel) },
		})
	}
	rs, err := matrix[MicroResult]([][]runner.Job{jobs}, opt)
	if err != nil {
		return nil, err
	}
	v := &Verification{Spec: spec, Fixed: rs[0][:fixed:fixed], ADCL: rs[0][fixed:]}
	for i, r := range v.Fixed {
		if r.Total < v.Fixed[v.Best].Total {
			v.Best = i
		}
	}
	return v, nil
}

// CorrectTolerance is the paper's definition of a correct decision: the
// chosen implementation performs within 5% of the best fixed run.
const CorrectTolerance = 0.05

// Correct reports whether the i-th ADCL run picked a correct winner under
// the paper's 5% criterion.
func (v *Verification) Correct(i int) bool {
	winner := v.ADCL[i].Winner
	var winnerTime float64 = -1
	for _, f := range v.Fixed {
		if f.Impl == winner {
			winnerTime = f.Total
			break
		}
	}
	if winnerTime < 0 {
		return false
	}
	best := v.Fixed[v.Best].Total
	return winnerTime <= best*(1+CorrectTolerance)
}
