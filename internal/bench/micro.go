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
	"strconv"
	"sync"

	"nbctune/internal/chaos/profiles"
	"nbctune/internal/core"
	"nbctune/internal/mpi"
	"nbctune/internal/obs"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
	"nbctune/internal/sim"
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
	// PDES selects the sharded multi-core simulation engine (DESIGN.md §13).
	// Results are identical at every shard count but legitimately differ
	// from the sequential engine (the rendezvous sender completes at
	// NIC-drain time; incast is sampled at wire arrival), so the flag is
	// part of the spec's identity and cache fingerprint. Chaos profiles are
	// not supported under PDES.
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
// differ from the default sequential engine (DESIGN.md §13).
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

// Ops supported by the micro-benchmark. The -scalable variants select from
// the scale-oriented function sets (core/funcsets_scale.go) that add the
// O(log n) and topology-aware algorithms; MsgSize is the per-rank block for
// iallgather-scalable and is ignored by ibarrier.
const (
	OpIalltoall          = "ialltoall"
	OpIbcast             = "ibcast"
	OpIbcastScalable     = "ibcast-scalable"
	OpIallgatherScalable = "iallgather-scalable"
	OpIbarrier           = "ibarrier"
)

// microOps lists every op the micro-benchmark accepts.
var microOps = []string{OpIalltoall, OpIbcast, OpIbcastScalable, OpIallgatherScalable, OpIbarrier}

func (s MicroSpec) String() string {
	return fmt.Sprintf("%s/%s np=%d msg=%dB compute=%gs progress=%d iters=%d",
		s.Op, s.Platform.Name, s.Procs, s.MsgSize, s.ComputePerIter, s.ProgressCalls, s.Iterations)
}

func (s MicroSpec) validate() error {
	if s.Procs < 2 {
		return fmt.Errorf("bench: need at least 2 procs")
	}
	if s.Iterations < 1 || s.ProgressCalls < 1 {
		return fmt.Errorf("bench: iterations and progress calls must be >= 1")
	}
	known := false
	for _, op := range microOps {
		if s.Op == op {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("bench: unknown op %q", s.Op)
	}
	for _, m := range s.Mocks {
		def, ok := core.MockByName(m)
		if !ok {
			return fmt.Errorf("bench: unknown mock %q", m)
		}
		if def.Op != s.Op {
			return fmt.Errorf("bench: mock %q extends %q sets, not %q", m, def.Op, s.Op)
		}
	}
	if s.PDES && s.Chaos != "" && s.Chaos != "off" {
		return fmt.Errorf("bench: chaos profile %q is not supported under PDES (sharded) simulation", s.Chaos)
	}
	return nil
}

func (s MicroSpec) evals() int {
	if s.EvalsPerFn > 0 {
		return s.EvalsPerFn
	}
	return 3
}

// chaosWorld builds a simulated machine through the single platform assembly
// point, with the named chaos profile attached (none for ""/"off").
func chaosWorld(pl platform.Platform, procs int, seed int64, place platform.Placement, chaosName string, chaosSeed int64) (*sim.Engine, *mpi.World, error) {
	prof, err := profiles.ByName(chaosName)
	if err != nil {
		return nil, nil, err
	}
	return pl.NewWorldChaos(procs, seed, place, prof, chaosSeed)
}

// world assembles the spec's simulated machine — sequential by default, the
// sharded (PDES) world when spec.PDES is set — behind a uniform
// start/observe/run triple so the benchmark loops run unchanged on either.
func (s MicroSpec) world() (start func(func(*mpi.Comm)), observe func(*obs.Recorder), run func(), err error) {
	if s.PDES {
		sw, err := s.Platform.NewWorldPDES(s.Procs, s.Seed, s.Placement, s.Shards)
		if err != nil {
			return nil, nil, nil, err
		}
		return sw.Start, sw.Observe, sw.Run, nil
	}
	eng, w, err := chaosWorld(s.Platform, s.Procs, s.Seed, s.Placement, s.Chaos, s.ChaosSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	return w.Start, w.Observe, func() { eng.Run() }, nil
}

// payload allocates an n-byte buffer descriptor in the spec's data mode:
// length-only by default, real storage with Data set.
func (s MicroSpec) payload(n int) mpi.Buf {
	if s.Data {
		return mpi.Bytes(make([]byte, n))
	}
	return mpi.Virtual(n)
}

// functionSet builds the op's function set on a communicator, with virtual
// payloads (timing only) unless the spec opts into data verification.
func (s MicroSpec) functionSet(c *mpi.Comm) *core.FunctionSet {
	fs, _, _ := s.functionSetData(c)
	return fs
}

// functionSetData builds the op's function set plus, in data mode, an init
// function that stamps the send buffers with a deterministic pattern and a
// check function that validates the received bytes (both nil on virtual
// runs).
func (s MicroSpec) functionSetData(c *mpi.Comm) (*core.FunctionSet, func(), func() error) {
	n, me := c.Size(), c.Rank()
	pat := func(src, dst, k int) byte { return byte(src*131 + dst*31 + k) }
	switch s.Op {
	case OpIalltoall:
		send := s.payload(n * s.MsgSize)
		recv := s.payload(n * s.MsgSize)
		fs, err := core.IalltoallSetWith(c, send, recv, false, s.Mocks)
		if err != nil {
			panic(err) // unreachable: validate() vets mock names
		}
		if !s.Data {
			return fs, nil, nil
		}
		init := func() {
			for j := 0; j < n; j++ {
				b := send.Slice(j*s.MsgSize, s.MsgSize).Data()
				for k := range b {
					b[k] = pat(me, j, k)
				}
			}
		}
		check := func() error {
			for j := 0; j < n; j++ {
				b := recv.Slice(j*s.MsgSize, s.MsgSize).Data()
				for k := range b {
					if b[k] != pat(j, me, k) {
						return fmt.Errorf("bench: ialltoall data mismatch at rank %d block %d byte %d", me, j, k)
					}
				}
			}
			return nil
		}
		return fs, init, check
	case OpIbcast:
		buf := s.payload(s.MsgSize)
		fs, err := core.IbcastSetWith(c, 0, buf, s.Mocks)
		if err != nil {
			panic(err) // unreachable: validate() vets mock names
		}
		if !s.Data {
			return fs, nil, nil
		}
		init := func() {
			if me == 0 {
				b := buf.Data()
				for k := range b {
					b[k] = pat(0, 1, k)
				}
			}
		}
		check := func() error {
			b := buf.Data()
			for k := range b {
				if b[k] != pat(0, 1, k) {
					return fmt.Errorf("bench: ibcast data mismatch at rank %d byte %d", me, k)
				}
			}
			return nil
		}
		return fs, init, check
	case OpIbcastScalable:
		buf := s.payload(s.MsgSize)
		fs := core.IbcastScalableSet(c, 0, buf)
		if !s.Data {
			return fs, nil, nil
		}
		init := func() {
			if me == 0 {
				b := buf.Data()
				for k := range b {
					b[k] = pat(0, 1, k)
				}
			}
		}
		check := func() error {
			b := buf.Data()
			for k := range b {
				if b[k] != pat(0, 1, k) {
					return fmt.Errorf("bench: ibcast-scalable data mismatch at rank %d byte %d", me, k)
				}
			}
			return nil
		}
		return fs, init, check
	case OpIallgatherScalable:
		send := s.payload(s.MsgSize)
		recv := s.payload(n * s.MsgSize)
		fs := core.IallgatherScalableSet(c, send, recv)
		if !s.Data {
			return fs, nil, nil
		}
		init := func() {
			b := send.Data()
			for k := range b {
				b[k] = pat(me, 0, k)
			}
		}
		check := func() error {
			for j := 0; j < n; j++ {
				b := recv.Slice(j*s.MsgSize, s.MsgSize).Data()
				for k := range b {
					if b[k] != pat(j, 0, k) {
						return fmt.Errorf("bench: iallgather data mismatch at rank %d block %d byte %d", me, j, k)
					}
				}
			}
			return nil
		}
		return fs, init, check
	case OpIbarrier:
		// Barriers move no payload; data mode has nothing to verify.
		return core.IbarrierSet(c), nil, nil
	default:
		panic("bench: unknown op " + s.Op)
	}
}

// FunctionNames lists the implementation names of the spec's function set,
// in index order, without running a simulation.
func (s MicroSpec) FunctionNames() []string {
	// The set structure is rank-independent; build it against a throwaway
	// 2-rank world.
	tmp := s
	tmp.Procs = 2
	var names []string
	eng, w, err := tmp.Platform.NewWorld(2, 1)
	if err != nil {
		panic(err)
	}
	w.Start(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			names = tmp.functionSet(c).FunctionNames()
		}
	})
	eng.Run()
	_ = eng
	return names
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

	// Observability metrics, filled only when Spec.Observe is set.
	Overlap          float64 `json:",omitempty"` // aggregate fraction of comm hidden under compute
	ProgressMade     int64   `json:",omitempty"` // explicit progress calls across all ranks
	ProgressAdvanced int64   `json:",omitempty"` // progress calls that advanced a schedule round
	StallTime        float64 `json:",omitempty"` // summed rendezvous RTS->CTS stall seconds
}

// runLoop executes the §IV-A benchmark loop on every rank with the given
// selector factory and returns the aggregate result, plus the run's recorder
// when spec.Observe is set (nil otherwise).
func runLoop(spec MicroSpec, label string, mkSel func(fs *core.FunctionSet) core.Selector) (MicroResult, *obs.Recorder, error) {
	if err := spec.validate(); err != nil {
		return MicroResult{}, nil, err
	}
	start, observe, run, err := spec.world()
	if err != nil {
		return MicroResult{}, nil, err
	}
	var rec *obs.Recorder
	if spec.Observe {
		rec = obs.NewRecorder(spec.Procs)
		observe(rec)
	}
	res := MicroResult{Spec: spec, Impl: label, DecidedIter: -1}
	chunk := spec.ComputePerIter / float64(spec.ProgressCalls)

	starts := make([]float64, spec.Procs)
	ends := make([]float64, spec.Procs)
	// Per-rank error slots: under PDES, ranks on different shards check
	// concurrently, so a shared variable would race.
	dataErrs := make([]error, spec.Procs)

	start(func(c *mpi.Comm) {
		me := c.Rank()
		fs, dinit, dcheck := spec.functionSetData(c)
		req := core.MustRequest(fs, mkSel(fs), c.Now)
		timer := core.MustTimer(c.Now, req)
		if dinit != nil {
			dinit()
		}

		c.Barrier()
		starts[me] = c.Now()
		var postSum float64
		var postN int
		skew := 0.0
		if spec.Imbalance > 0 && spec.Procs > 1 {
			// Deterministic stagger (process arrival patterns): rank r
			// computes Imbalance*r/(P-1) longer than rank 0, so ranks enter
			// the collective at different times.
			skew = spec.Imbalance * float64(me) / float64(spec.Procs-1)
		}
		for it := 0; it < spec.Iterations; it++ {
			iterStart := c.Now()
			timer.Start()
			req.Init()
			if me == 0 && res.DecidedIter < 0 && req.Decided() {
				res.DecidedIter = it
			}
			for k := 0; k < spec.ProgressCalls; k++ {
				c.Compute(chunk * (1 + skew))
				req.Progress()
			}
			req.Wait()
			if dcheck != nil && dataErrs[me] == nil {
				dataErrs[me] = dcheck()
			}
			core.StopMaybeSynced(c, timer, req)
			if me == 0 && req.Decided() {
				postSum += c.Now() - iterStart
				postN++
			}
		}
		c.Barrier()
		ends[me] = c.Now()
		if me == 0 {
			if wf := req.Winner(); wf != nil {
				res.Winner = wf.Name
			}
			res.Evals = req.Selector().Evals()
			if postN > 0 {
				res.PostLearnPerIter = postSum / float64(postN)
			}
		}
	})
	run()
	for _, derr := range dataErrs {
		if derr != nil {
			return res, nil, derr
		}
	}

	for me := 0; me < spec.Procs; me++ {
		if d := ends[me] - starts[me]; d > res.Total {
			res.Total = d
		}
	}
	res.PerIter = res.Total / float64(spec.Iterations)
	if rec != nil {
		m := rec.Metrics()
		res.Overlap = m.Overlap
		res.ProgressMade = m.ProgressCalls
		res.ProgressAdvanced = m.ProgressAdvanced
		res.StallTime = m.RendezvousStallTime
	}
	return res, rec, nil
}

// RunFixed runs the benchmark pinned to implementation index fn.
func RunFixed(spec MicroSpec, fn int) (MicroResult, error) {
	r, _, err := runFixed(spec, fn)
	return r, err
}

// runFixed is RunFixed, additionally returning the run's recorder (nil unless
// spec.Observe is set) for trace export.
func runFixed(spec MicroSpec, fn int) (MicroResult, *obs.Recorder, error) {
	names := spec.FunctionNames()
	if fn < 0 || fn >= len(names) {
		return MicroResult{}, nil, fmt.Errorf("bench: implementation index %d out of range (%d impls)", fn, len(names))
	}
	r, rec, err := runLoop(spec, names[fn], func(fs *core.FunctionSet) core.Selector {
		return &core.FixedSelector{Fn: fn}
	})
	if err != nil {
		return r, nil, err
	}
	r.Winner = r.Impl
	return r, rec, nil
}

// RunADCL runs the benchmark under a runtime selection logic
// ("brute-force", "attr-heuristic", or "factorial-2k").
func RunADCL(spec MicroSpec, selector string) (MicroResult, error) {
	r, _, err := runADCL(spec, selector)
	return r, err
}

// runADCL is RunADCL, additionally returning the run's recorder (nil unless
// spec.Observe is set).
func runADCL(spec MicroSpec, selector string) (MicroResult, *obs.Recorder, error) {
	var selErr error
	var selOnce sync.Once // every rank constructs a selector; under PDES they do so concurrently
	r, rec, err := runLoop(spec, "adcl:"+selector, func(fs *core.FunctionSet) core.Selector {
		sel, err := core.SelectorByName(selector, fs, spec.evals())
		if err != nil {
			selOnce.Do(func() { selErr = err })
			return &core.FixedSelector{Fn: 0}
		}
		return sel
	})
	if selErr != nil {
		return MicroResult{}, nil, selErr
	}
	return r, rec, err
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
		names := spec.FunctionNames()
		if limit > 0 && limit < len(names) {
			names = names[:limit]
		}
		out[i] = make([]MicroResult, len(names))
		for fn, impl := range names {
			jobs = append(jobs, fixedJob(spec, fn, impl, trace))
		}
	}
	rs, err := runner.Run(jobs, opt.runnerOptions())
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

// RunVerification executes the full verification run for a spec,
// sequentially. It is RunVerificationOpts on one worker with no cache.
func RunVerification(spec MicroSpec, selectors ...string) (*Verification, error) {
	return RunVerificationOpts(spec, RunOptions{}, selectors...)
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
	names := spec.FunctionNames()
	jobs := make([]runner.Job, 0, len(names)+len(selectors))
	for i := range names {
		jobs = append(jobs, fixedJob(spec, i, names[i], nil))
	}
	for _, sel := range selectors {
		sel := sel
		job := runner.Job{
			Label: fmt.Sprintf("%s adcl=%s", spec, sel),
			Key:   ADCLKey(spec, sel),
			Run:   func() (any, error) { return RunADCL(spec, sel) },
		}
		if opt.Speculate {
			job.Label = fmt.Sprintf("%s adcl=speculative+%s", spec, sel)
			job.Key = SpecKey(spec, sel)
			job.Run = func() (any, error) {
				sr, err := RunSpeculative(spec, sel, opt.SpecWorkers)
				if err != nil {
					return nil, err
				}
				return sr.Result, nil
			}
		}
		jobs = append(jobs, job)
	}
	rs, err := runner.Run(jobs, opt.runnerOptions())
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
