// Package bench implements the paper's measurement harnesses: the §IV-A
// overlap micro-benchmark (initiate a non-blocking collective, compute in
// chunks with progress calls in between, wait), the verification-run
// methodology of Fig 2, and the table/CSV reporting used by the cmd/
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
	"strconv"

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
	// PDES selects the sharded multi-core simulation engine (DESIGN.md §2).
	// Results are identical at every shard count but legitimately differ
	// from the sequential engine (a rendezvous send or a put completes at
	// NIC-drain time; incast is sampled at wire arrival), so the flag is
	// part of the spec's identity and cache fingerprint. Every op and chaos
	// profile runs under it.
	PDES bool `json:",omitempty"`
	// Shards is the worker (OS thread) count used when PDES is set; <= 0
	// selects min(GOMAXPROCS, used nodes). Excluded from the JSON form: the
	// shard count changes only wall-clock, never a simulated quantity, so
	// specs fingerprint (and cache, and summarize) identically at every
	// count — the same philosophy as the runner's -jobs.
	Shards int `json:"-"`
}

// ParseShards interprets a driver's -shards flag: "" keeps the sequential
// engine, "auto" selects the sharded (PDES) engine with a GOMAXPROCS-derived
// worker count (platform assembly clamps it to the used node count), and a
// positive integer pins the shard count. Results are identical for every
// shard count >= 1 — like -jobs, the count changes only wall-clock — but
// differ from the default sequential engine (DESIGN.md §2).
func ParseShards(v string) (shards int, pdes bool, err error) {
	switch v {
	case "":
		return 0, false, nil
	case "auto":
		return 0, true, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, false, fmt.Errorf("invalid -shards %q (want auto or a positive shard count)", v)
	}
	return n, true, nil
}

// Names of the catalogue ops (core.OpByName) the scenario grids use; a spec
// may name any op of the catalogue. The -scalable variants select from the
// scale-oriented function sets (core/funcsets_scale.go) that add the O(log n)
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
	return s.Platform.Assemble(s.Procs, s.Seed, s.Placement, s.Chaos, s.ChaosSeed, s.PDES, s.Shards)
}

// payload allocates an n-byte buffer descriptor in the spec's data mode:
// length-only by default, real storage with Data set.
func (s MicroSpec) payload(n int) mpi.Buf {
	if s.Data {
		return mpi.Bytes(make([]byte, n))
	}
	return mpi.Virtual(n)
}

// HostFunctionSet builds the spec's function set outside any run, for its
// names and for host-side selector replay. The set's structure is
// rank-independent, so it is built on rank 0 of a throwaway world — of two
// ranks unless the op's shape depends on the communicator size; the Start
// closures are bound to that world and never invoked, so no schedule is ever
// compiled for it (core.schedFn).
func (s MicroSpec) HostFunctionSet() (*core.FunctionSet, error) {
	op, err := core.OpByName(s.Op)
	if err != nil {
		return nil, err
	}
	n := 2
	if op.PerSize {
		n = s.Procs
	}
	_, w, err := s.Platform.NewWorld(n, 1)
	if err != nil {
		return nil, err
	}
	var fs *core.FunctionSet
	w.Start(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			fs, err = op.Set(c, s.MsgSize, s.Mocks)
		}
	})
	w.Run()
	return fs, err
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
	Spec             MicroSpec
	Impl             string  // implementation or "adcl:<selector>"
	Total            float64 // barrier-to-barrier loop time, rank-max (seconds)
	PerIter          float64 // Total / Iterations
	Winner           string  // ADCL runs: decided implementation
	Evals            int     // ADCL runs: learning-phase measurements
	DecidedIter      int     // ADCL runs: iteration at which the winner locked in
	PostLearnPerIter float64 // ADCL runs: mean per-iteration time after decision
	Observed
}

// Observed holds a result's observability metrics, filled only when the
// spec's Observe is set.
type Observed struct {
	Overlap          float64 `json:",omitempty"` // aggregate fraction of comm hidden under compute
	ProgressMade     int64   `json:",omitempty"` // explicit progress calls across all ranks
	ProgressAdvanced int64   `json:",omitempty"` // progress calls that advanced a schedule round
	StallTime        float64 `json:",omitempty"` // summed rendezvous RTS->CTS stall seconds
}

// observed derives a result's metrics from the run's recorder (nil: none).
func observed(rec *obs.Recorder) Observed {
	if rec == nil {
		return Observed{}
	}
	m := rec.Metrics()
	return Observed{m.Overlap, m.ProgressCalls, m.ProgressAdvanced, m.RendezvousStallTime}
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

// timed runs one rank program per rank of w and returns the rank-max
// barrier-to-barrier virtual time of its timed region, the Total of every
// result. prog sets the rank up and returns the region (nil: the rank gives
// up); the region receives the time it starts at.
func timed(w *mpi.World, procs int, prog func(c *mpi.Comm) (region func(t0 float64))) float64 {
	starts := make([]float64, procs)
	ends := make([]float64, procs)
	w.Start(func(c *mpi.Comm) {
		region := prog(c)
		if region == nil {
			return
		}
		me := c.Rank()
		c.Barrier()
		starts[me] = c.Now()
		region(starts[me])
		c.Barrier()
		ends[me] = c.Now()
	})
	w.Run()
	total := 0.0
	for me := range starts {
		if d := ends[me] - starts[me]; d > total {
			total = d
		}
	}
	return total
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
// logic (rank 0's result is the one reported), and iterates barrier to
// barrier. It returns the aggregate result, plus the run's recorder when
// spec.Observe is set (nil otherwise).
func runLoop(spec MicroSpec, w *mpi.World, label string, mkSel selectorFor) (MicroResult, *obs.Recorder, error) {
	op, err := core.OpByName(spec.Op)
	if err != nil {
		return MicroResult{}, nil, err
	}
	var rec *obs.Recorder
	if spec.Observe {
		rec = obs.NewRecorder(spec.Procs)
		w.Observe(rec)
	}
	res := MicroResult{Spec: spec, Impl: label, DecidedIter: -1}
	// Per-rank error slots: under PDES, ranks on different shards check
	// concurrently, so a shared variable would race.
	errs := make([]error, spec.Procs)

	res.Total = timed(w, spec.Procs, func(c *mpi.Comm) func(float64) {
		me := c.Rank()
		send, recv := op.Buffers(spec.Procs, spec.MsgSize, spec.payload)
		fs, err := op.Build(c, send, recv, 0, spec.Mocks)
		if err != nil {
			errs[me] = err
			return nil
		}
		sel, err := mkSel(me, fs)
		if err != nil {
			errs[me] = err
			return nil
		}
		req := core.MustRequest(fs, sel, c.Now)
		timer := core.MustTimer(c.Now, req)
		if spec.Data {
			op.Fill(me, 0, spec.MsgSize, send)
		}
		return func(float64) {
			var postSum float64
			var postN int
			for it := 0; it < spec.Iterations; it++ {
				iterStart := c.Now()
				spec.Iterate(c, req, timer)
				if spec.Data && errs[me] == nil {
					errs[me] = op.Check(me, 0, spec.MsgSize, recv)
				}
				if me == 0 && req.Decided() {
					if res.DecidedIter < 0 {
						res.DecidedIter = it
					}
					postSum += c.Now() - iterStart
					postN++
				}
			}
			if me == 0 {
				if wf := req.Winner(); wf != nil {
					res.Winner = wf.Name
				}
				res.Evals = req.Selector().Evals()
				if postN > 0 {
					res.PostLearnPerIter = postSum / float64(postN)
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return res, nil, fmt.Errorf("bench: %w", err)
		}
	}
	res.PerIter = res.Total / float64(spec.Iterations)
	res.Observed = observed(rec)
	return res, rec, nil
}

// run assembles the spec's world and runs the §IV-A loop on it.
func (s MicroSpec) run(label string, mkSel selectorFor) (MicroResult, *obs.Recorder, error) {
	w, err := s.World()
	if err != nil {
		return MicroResult{}, nil, err
	}
	return runLoop(s, w, label, mkSel)
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

// FixedMatrix measures the fixed implementations of every scenario on the
// experiment runner, one job per (scenario, implementation), and returns the
// results indexed [scenario][implementation] in submission order regardless
// of completion order. limit > 0 measures only the first limit
// implementations of each function set.
func FixedMatrix(specs []MicroSpec, limit int, opt RunOptions, trace TraceSink) ([][]MicroResult, error) {
	var jobs []runner.Job
	out := make([][]MicroResult, len(specs))
	for i, spec := range specs {
		if err := spec.validate(); err != nil {
			return nil, err
		}
		fs, err := spec.HostFunctionSet()
		if err != nil {
			return nil, err
		}
		names := fs.FunctionNames()
		if limit > 0 && limit < len(names) {
			names = names[:limit]
		}
		out[i] = make([]MicroResult, len(names))
		for fn, impl := range names {
			jobs = append(jobs, fixedJob(spec, fn, impl, trace))
		}
	}
	rs, err := runner.Run(jobs, opt)
	if err != nil {
		return nil, err
	}
	k := 0
	for i := range out {
		for fn := range out[i] {
			if err := rs[k].Decode(&out[i][fn]); err != nil {
				return nil, fmt.Errorf("cell %d: %w", k, err)
			}
			k++
		}
	}
	return out, nil
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
	if err := spec.validate(); err != nil {
		return nil, err
	}
	fs, err := spec.HostFunctionSet()
	if err != nil {
		return nil, err
	}
	names := fs.FunctionNames()
	jobs := make([]runner.Job, 0, len(names)+len(selectors))
	for i := range names {
		jobs = append(jobs, fixedJob(spec, i, names[i], nil))
	}
	for _, sel := range selectors {
		sel := sel
		jobs = append(jobs, runner.Job{
			Label: fmt.Sprintf("%s adcl=%s", spec, sel),
			Key:   ADCLKey(spec, sel),
			Run:   func() (any, error) { return RunADCL(spec, sel) },
		})
	}
	rs, err := runner.Run(jobs, opt)
	if err != nil {
		return nil, err
	}
	v := &Verification{Spec: spec}
	for i := range names {
		var r MicroResult
		if err := rs[i].Decode(&r); err != nil {
			return nil, err
		}
		v.Fixed = append(v.Fixed, r)
		if r.Total < v.Fixed[v.Best].Total {
			v.Best = i
		}
	}
	for j := range selectors {
		var r MicroResult
		if err := rs[len(names)+j].Decode(&r); err != nil {
			return nil, err
		}
		v.ADCL = append(v.ADCL, r)
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
