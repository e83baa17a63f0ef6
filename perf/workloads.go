package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"nbctune/internal/bench"
	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/platform"
)

// workloads maps BENCHMARK.json's workload names (perf_test.go keeps the two
// in step; the manifest holds the reason each one exists) to the function
// that builds its inputs from the seed and loads its reference files.
var workloads = map[string]func(cfg config) (*plan, error){
	"sweep-verify":  prepareSweepVerify,
	"fft-app":       prepareFFTApp,
	"scale-4k":      prepareScale4K,
	"wide-alltoall": prepareWideAlltoall,
	"kb-mixed":      prepareKBMixed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reference files live outside perf/: a change that deliberately moves the
// virtual timeline regenerates them with its code, not with the benchmark.
const (
	refSweep = "results/sweep_summary.json"
	refFFT   = "results/sweep_summary_fft.json"
	refScale = "BENCH_scale.json"
)

var sweepSelectors = []string{"brute-force", "attr-heuristic", "factorial-2k"}

// stamps timestamps each runner progress line: one Write per completed job,
// in completion order, which with one worker is submission order.
type stamps struct{ done []time.Time }

func (s *stamps) Write(p []byte) (int, error) {
	s.done = append(s.done, time.Now())
	return len(p), nil
}

// tracedSweep runs one sweep call under a span named call, handing it the
// progress writer, and adds one span per job from the completion stamps
// (each job starts when the previous one completed).
func tracedSweep(tr *tracer, parent, pass int, call string, job func(i int) string, sweep func(progress io.Writer) error) error {
	var st stamps
	id := tr.begin(parent, call, pass)
	start := time.Now()
	err := sweep(&st)
	tr.end(id)
	for i, at := range st.done {
		tr.add(id, job(i), pass, start, at)
		start = at
	}
	return err
}

func loadSummaryRows(path string) ([]bench.SummaryRow, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference %s (run from the repository root): %w", path, err)
	}
	var sum bench.SweepSummary
	if err := json.Unmarshal(b, &sum); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	return sum.Rows, nil
}

// sameRow compares two summary rows field for field, ignoring Overlap
// (present only in observed sweeps; the committed files were observed).
func sameRow(a, b bench.SummaryRow) bool {
	a.Overlap, b.Overlap = 0, 0
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}

func positive(xs ...float64) bool {
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// prepareSweepVerify: the body of `sweep -suite verification -fast -jobs 1`.
// One pass is the whole 24-scenario grid; an op is a scenario.
func prepareSweepVerify(cfg config) (*plan, error) {
	specs := bench.VerificationScenarios(true)
	if cfg.tiny() {
		specs = specs[:2]
	}
	for i := range specs {
		specs[i].Seed += cfg.seed
	}
	var ref []bench.SummaryRow
	if cfg.seed == 0 {
		rows, err := loadSummaryRows(refSweep)
		if err != nil {
			return nil, err
		}
		ref = rows
	}
	return sweepVerifyPlan(cfg, specs, ref), nil
}

// sweepBlock is how many scenarios one timed pass of sweep-verify runs: a
// (platform, progress-calls) block of the grid, both operations at both sizes.
const sweepBlock = 4

// sweepVerifyPlan is split from prepareSweepVerify so the test can hand in
// a corrupted reference. The grid is run block by block, one sweep call per
// pass, so the host-speed reference is sampled between blocks; the rows are
// the ones a single call over the whole grid gives.
func sweepVerifyPlan(cfg config, specs []bench.MicroSpec, ref []bench.SummaryRow) *plan {
	block := min(sweepBlock, len(specs))
	blocks := len(specs) / block
	p := &plan{passes: passesFor(cfg, 16.5) * blocks, opsPerPass: block, unequal: true}
	// The warm-up unit is the grid's first whale-tcp block (8 ranks): about a
	// second, where the first crill block is four.
	warm := specs[:block]
	if blocks > 4 {
		warm = specs[4*block : 5*block]
	}
	runs := make([]*bench.Verification, len(specs))
	sweep := func(specs []bench.MicroSpec, tr *tracer, parent, pass int) (stats *bench.SweepStats, err error) {
		err = tracedSweep(tr, parent, pass, "bench.VerificationSweepOpts", func(i int) string { return "scenario:" + specs[i].Op },
			func(progress io.Writer) (err error) {
				stats, err = bench.VerificationSweepOpts(specs, sweepSelectors, bench.RunOptions{Workers: 1, Progress: progress})
				return err
			})
		return stats, err
	}
	p.warm = func(tr *tracer, parent int) error {
		_, err := sweep(warm, tr, parent, -1)
		return err
	}
	p.pass = func(i int, tr *tracer, parent int) error {
		at := i % blocks * block
		stats, err := sweep(specs[at:at+block], tr, parent, i)
		if err == nil {
			copy(runs[at:], stats.Runs)
		}
		return err
	}
	p.check = func() {
		rows := (&bench.SweepStats{Selectors: sweepSelectors, Runs: runs}).Summary().Rows
		for i, v := range runs {
			names := v.Spec.FunctionNames()
			ok := len(v.Fixed) == len(names) && v.Best >= 0 && v.Best < len(v.Fixed) && len(v.ADCL) == len(sweepSelectors)
			for _, f := range v.Fixed {
				ok = ok && positive(f.Total)
			}
			for _, a := range v.ADCL {
				ok = ok && positive(a.Total) && a.Evals > 0 && slices.Contains(names, a.Winner)
			}
			switch {
			case !ok:
				p.fail(1, "scenario %d (%s): malformed result (winner outside the function set, or a non-positive time)", i, v.Spec)
			case ref != nil && (i >= len(ref) || !sameRow(rows[i], ref[i])):
				p.fail(1, "scenario %d (%s): row differs from %s", i, v.Spec, refSweep)
			}
		}
	}
	return p
}

// prepareFFTApp: the body of `sweep -suite fft -fast -jobs 1`. One pass is
// the 8-scenario grid; an op is a kernel run (LibNBC and ADCL per scenario).
func prepareFFTApp(cfg config) (*plan, error) {
	specs := bench.FFTScenarios(true)
	if cfg.tiny() {
		specs = specs[:1]
		specs[0].Procs, specs[0].N, specs[0].Iterations = 8, 32, 8
	}
	for i := range specs {
		specs[i].Seed += cfg.seed
	}
	var ref []bench.SummaryRow
	if cfg.seed == 0 && !cfg.tiny() {
		rows, err := loadSummaryRows(refFFT)
		if err != nil {
			return nil, err
		}
		ref = rows
	}
	// One scenario (its LibNBC and its ADCL kernel run) per timed pass, so the
	// host-speed reference is sampled between scenarios.
	p := &plan{passes: passesFor(cfg, 16) * len(specs), opsPerPass: 2, unequal: true}
	rows := make([][2]bench.FFTResult, len(specs))
	sweep := func(specs []bench.FFTSpec, tr *tracer, parent, pass int) (stats *bench.FFTSweepStats, err error) {
		err = tracedSweep(tr, parent, pass, "bench.FFTSweepOpts", func(int) string { return "scenario:fft3d" },
			func(progress io.Writer) (err error) {
				stats, err = bench.FFTSweepOpts(specs, bench.RunOptions{Workers: 1, Progress: progress})
				return err
			})
		return stats, err
	}
	// The warm-up unit is the grid's second scenario (32 ranks, tiled): under
	// half a second, where the first takes two.
	warm := specs[min(1, len(specs)-1):][:1]
	p.warm = func(tr *tracer, parent int) error {
		_, err := sweep(warm, tr, parent, -1)
		return err
	}
	p.pass = func(i int, tr *tracer, parent int) error {
		at := i % len(specs)
		stats, err := sweep(specs[at:at+1], tr, parent, i)
		if err == nil {
			rows[at] = stats.Rows[0]
		}
		return err
	}
	p.check = func() {
		sum := (&bench.FFTSweepStats{Rows: rows}).Summary().Rows
		for i, pair := range rows {
			nbcR, adclR := pair[0], pair[1]
			switch {
			case !positive(nbcR.Total, adclR.Total) || adclR.Winner == "" || adclR.Evals <= 0:
				p.fail(2, "scenario %d (%s): malformed result (no winner, or a non-positive time)", i, nbcR.Spec)
			case ref != nil && (i >= len(ref) || !sameRow(sum[i], ref[i])):
				p.fail(2, "scenario %d (%s): row differs from %s", i, nbcR.Spec, refFFT)
			}
		}
	}
	return p, nil
}

// worldRun is what one simulated-world pass produced; passes of one run
// must agree on it exactly (virtual time must not move with host time).
type worldRun struct {
	events  int64
	virtual float64
	done    bool
}

// runWorld builds a bgp-16k world of n ranks (block placement), starts prog
// on every rank, and runs it to completion — each step a span.
func runWorld(n int, seed int64, prog func(*mpi.Comm), tr *tracer, parent, pass int) (worldRun, error) {
	plat, err := platform.ByName("bgp-16k")
	if err != nil {
		return worldRun{}, err
	}
	id := tr.begin(parent, "platform.NewWorldPlaced", pass)
	eng, w, err := plat.NewWorldPlaced(n, 1+seed, platform.Block)
	tr.end(id)
	if err != nil {
		return worldRun{}, err
	}
	id = tr.begin(parent, "mpi.World.Start", pass)
	w.Start(prog)
	tr.end(id)
	id = tr.begin(parent, "sim.Engine.Run", pass)
	virt := eng.Run()
	tr.end(id)
	out := worldRun{events: eng.EventsFired, virtual: virt, done: true}
	for _, pr := range eng.Procs() {
		out.done = out.done && pr.Done()
	}
	return out, nil
}

// worldPlan is the shared shape of scale-4k and wide-alltoall: a warm-up
// pass that fixes the expected outcome, then identical timed passes.
func worldPlan(cfg config, passSeconds float64, ranks, opsPerPass, warmPasses int, warmProg, prog func(*mpi.Comm), wantWarm *worldRun) *plan {
	p := &plan{passes: passesFor(cfg, passSeconds), opsPerPass: opsPerPass}
	var runs []worldRun
	p.warm = func(tr *tracer, parent int) error {
		for i := 0; i < warmPasses; i++ {
			got, err := runWorld(ranks, cfg.seed, warmProg, tr, parent, -1)
			if err != nil {
				return err
			}
			if wantWarm != nil && (got.events != wantWarm.events || got.virtual != wantWarm.virtual || !got.done) {
				p.fail(opsPerPass, "warm-up pass fired %d events ending at %.17g s, %s records %d and %.17g",
					got.events, got.virtual, refScale, wantWarm.events, wantWarm.virtual)
			}
		}
		return nil
	}
	p.pass = func(i int, tr *tracer, parent int) error {
		got, err := runWorld(ranks, cfg.seed, prog, tr, parent, i)
		runs = append(runs, got)
		return err
	}
	p.check = func() {
		for i, r := range runs {
			if r != runs[0] || !r.done {
				p.fail(opsPerPass, "pass %d: %d events, virtual end %.17g, all done %v; pass 0 had %d, %.17g",
					i, r.events, r.virtual, r.done, runs[0].events, runs[0].virtual)
			}
		}
	}
	p.layer = func(res *result, wall float64) {
		var events int64
		for _, r := range runs {
			events += r.events
		}
		res.add("sim.events_per_s", "1/s", float64(events)/wall, 0)
		res.add("sim.events_per_op", "count", float64(runs[0].events)/float64(opsPerPass), 0)
	}
	return p
}

// barrierBcast is BENCH_scale's rank program repeated k times: a
// dissemination barrier, then a binomial 64 KiB broadcast in 32 KiB segments.
func barrierBcast(k int) func(*mpi.Comm) {
	return func(c *mpi.Comm) {
		n, me := c.Size(), c.Rank()
		for i := 0; i < k; i++ {
			nbc.Run(c, nbc.Ibarrier(n, me))
			nbc.Run(c, nbc.Ibcast(n, me, 0, mpi.Virtual(64*1024), nbc.FanoutBinomial, 32*1024))
		}
	}
}

// prepareScale4K: 4096 ranks on the bgp-16k torus, three barrier+bcast
// iterations per pass. The warm-up is one K=1 pass, which must reproduce
// BENCH_scale.json's 4096-rank event count and virtual end time.
func prepareScale4K(cfg config) (*plan, error) {
	ranks, iters := 4096, 3
	var want *worldRun
	if cfg.tiny() {
		ranks = 256
	} else if cfg.seed == 0 {
		b, err := os.ReadFile(refScale)
		if err != nil {
			return nil, fmt.Errorf("reference %s (run from the repository root): %w", refScale, err)
		}
		var base struct {
			Points map[string]bench.ScalePoint `json:"points_by_ranks"`
		}
		if err := json.Unmarshal(b, &base); err != nil {
			return nil, fmt.Errorf("reference %s: %w", refScale, err)
		}
		pt, ok := base.Points["4096"]
		if !ok {
			return nil, fmt.Errorf("reference %s has no 4096-rank point", refScale)
		}
		want = &worldRun{events: pt.Events, virtual: pt.VirtualSeconds, done: true}
	}
	return worldPlan(cfg, 2.6, ranks, iters, 1, barrierBcast(1), barrierBcast(iters), want), nil
}

// prepareWideAlltoall: 384 ranks each running one linear Ialltoall with
// 1 KiB blocks — 383 posted receives per rank, 147 072 messages a pass.
func prepareWideAlltoall(cfg config) (*plan, error) {
	ranks := 384
	if cfg.tiny() {
		ranks = 64
	}
	prog := func(c *mpi.Comm) {
		n, me := c.Size(), c.Rank()
		nbc.Run(c, nbc.Ialltoall(n, me, mpi.Virtual(n*1024), mpi.Virtual(n*1024), nbc.AlgoLinear))
	}
	return worldPlan(cfg, 2.0, ranks, 1, 1, prog, prog, nil), nil
}
