package guideline

import (
	"fmt"
	"io"

	"nbctune/internal/core"
	"nbctune/internal/mpi"
	"nbctune/internal/obs"
	"nbctune/internal/runner"
)

// Config parameterizes one engine run, which judges the shipped guidelines
// (Defaults) with the default gates (DefaultTol, DefaultMinEffect).
type Config struct {
	// Scenarios is the evaluation matrix (SmokeScenarios/FullScenarios or a
	// custom list). Every guideline is judged on every scenario whose Op
	// matches.
	Scenarios []Scenario
	// Adopt runs the feedback loop: every violated guideline that promotes a
	// mock gets a fresh tuning round on the mock-extended function set, with
	// the promotion recorded in the selection audit.
	Adopt bool
	// Workers sizes the runner pool (<= 0: GOMAXPROCS); Cache, when non-nil,
	// serves repeated leaf measurements and adoption rounds from the
	// content-addressed store, so interrupted matrix runs resume for free.
	// Progress streams runner progress lines.
	Workers  int
	Cache    *runner.Cache
	Progress io.Writer
}

// SmokeScenarios is the CI-sized matrix: the three mock-checkable
// operations plus iallreduce on two contrasting platforms, one rank count,
// small and large payloads, clean machine. Small enough for a make target,
// large enough that the shipped guidelines produce at least one genuine
// violation (the committed results/guideline_report.json pins which).
func SmokeScenarios(seed int64, chaos string, chaosSeed int64) []Scenario {
	var out []Scenario
	type opSizes struct {
		op    string
		sizes []int
	}
	for _, pl := range []string{"crill", "whale-tcp"} {
		for _, os := range []opSizes{
			{"ibcast", []int{4096, 262144}},
			{"ialltoall", []int{2048, 32768}},
			{"iallgather", []int{1024, 65536}},
			{"iallreduce", []int{8192}},
		} {
			for _, size := range os.sizes {
				out = append(out, Scenario{
					Op: os.op, Platform: pl, Procs: 16, Size: size,
					Chaos: chaos, ChaosSeed: chaosSeed,
					Seed: seed, Reps: 5, Evals: 2,
				})
			}
		}
	}
	return out
}

// FullScenarios is the overnight matrix: four platforms, two rank counts, a
// size ladder per operation, clean and chaotic machines.
func FullScenarios(seed int64, chaosSeed int64) []Scenario {
	var out []Scenario
	type opSizes struct {
		op    string
		sizes []int
	}
	ops := []opSizes{
		{"ibcast", []int{1024, 16384, 262144, 1048576}},
		{"ialltoall", []int{512, 8192, 65536}},
		{"iallgather", []int{512, 8192, 65536}},
		{"iallreduce", []int{1024, 65536}},
	}
	for _, pl := range []string{"crill", "whale", "whale-tcp", "bgp"} {
		for _, np := range []int{16, 32} {
			for _, chaos := range []string{"", "congested"} {
				for _, os := range ops {
					for _, size := range os.sizes {
						out = append(out, Scenario{
							Op: os.op, Platform: pl, Procs: np, Size: size,
							Chaos: chaos, ChaosSeed: chaosSeed,
							Seed: seed, Reps: 7, Evals: 3,
						})
					}
				}
			}
		}
	}
	return out
}

// Run checks every shipped guideline on every matching scenario. Leaf
// measurements, and then the adoption rounds of the violated guidelines, fan
// out over the experiment runner (parallel, cached, resumable); judgments
// and the report are computed from the collected results in cell order, so
// the report is byte-identical for any worker count and for cached versus
// fresh runs.
func Run(cfg Config) (*Report, error) {
	gls := Defaults()

	// Collect the deduplicated set of leaf measurements the matrix needs.
	type cell struct {
		sc Scenario
		g  Guideline
	}
	var cells []cell
	var jobs []runner.Job
	jobIdx := map[string]int{} // leaf key -> index into jobs
	addLeaf := func(sc Scenario, l Leaf) error {
		key, err := LeafKey(sc, l)
		if err != nil {
			return err
		}
		if _, ok := jobIdx[key]; ok {
			return nil
		}
		jobIdx[key] = len(jobs)
		label := fmt.Sprintf("%s leaf=%s size=%dB", sc, leafName(l), l.Size)
		jobs = append(jobs, runner.Job{
			Label: label,
			Key:   key,
			Run:   func() (any, error) { r, err := MeasureLeaf(sc, l); return r, err },
		})
		return nil
	}
	for _, sc := range cfg.Scenarios {
		for _, g := range gls {
			if g.Op != sc.Op {
				continue
			}
			cells = append(cells, cell{sc, g})
			for _, side := range []Expr{g.Left, g.Right} {
				for _, l := range leavesOf(side, sc, nil) {
					if err := addLeaf(sc, l); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	opt := runner.Options{Workers: cfg.Workers, Cache: cfg.Cache, Progress: cfg.Progress}
	results, err := runner.Run(jobs, opt)
	if err != nil {
		return nil, err
	}
	leafOfKey := func(sc Scenario, l Leaf) (LeafResult, error) {
		key, err := LeafKey(sc, l)
		if err != nil {
			return LeafResult{}, err
		}
		var r LeafResult
		if err := results[jobIdx[key]].Decode(&r); err != nil {
			return LeafResult{}, err
		}
		return r, nil
	}

	rep := &Report{
		SchemaVersion: SchemaVersion,
		Tol:           DefaultTol,
		MinEffect:     DefaultMinEffect,
		Scenarios:     len(cfg.Scenarios),
		Measurements:  len(jobs),
	}
	// Every violated guideline that promotes a mock gets its tuning round as
	// one more runner job, in cell order.
	var adoptions []runner.Job
	for _, c := range cells {
		f, err := judgeCell(c.sc, c.g, leafOfKey)
		if err != nil {
			return nil, err
		}
		rep.Findings = append(rep.Findings, f)
		if f.Violated {
			rep.Violations++
		}
		if mock := c.g.PromotesMock(); cfg.Adopt && f.Violated && mock != "" {
			key, err := runner.Fingerprint("guideline-adopt", c.sc, c.g.Name, mock)
			if err != nil {
				return nil, err
			}
			adoptions = append(adoptions, runner.Job{
				Label: fmt.Sprintf("%s adopt=%s", c.sc, mock),
				Key:   key,
				Run:   func() (any, error) { return adopt(c.sc, c.g, mock) },
			})
		}
	}
	adopted, err := runner.Run(adoptions, opt)
	if err != nil {
		return nil, err
	}
	for _, r := range adopted {
		var reg Registration
		if err := r.Decode(&reg); err != nil {
			return nil, err
		}
		rep.Registrations = append(rep.Registrations, reg)
	}
	return rep, nil
}

func leafName(l Leaf) string {
	if l.Mock != "" {
		return l.Mock
	}
	return l.Op
}

// judgeCell evaluates one (scenario, guideline) pair into a Finding.
func judgeCell(sc Scenario, g Guideline, get func(Scenario, Leaf) (LeafResult, error)) (Finding, error) {
	lookup := func(l Leaf) ([]float64, error) {
		r, err := get(sc, l)
		if err != nil {
			return nil, err
		}
		return r.Samples, nil
	}
	winner := func(l Leaf) string {
		r, err := get(sc, l)
		if err != nil {
			return ""
		}
		return r.Winner
	}
	left, err := evalExpr(g.Left, sc, lookup)
	if err != nil {
		return Finding{}, fmt.Errorf("guideline %s on %s: left: %w", g.Name, sc, err)
	}
	right, err := evalExpr(g.Right, sc, lookup)
	if err != nil {
		return Finding{}, fmt.Errorf("guideline %s on %s: right: %w", g.Name, sc, err)
	}
	v := Judge(left, right, DefaultTol, DefaultMinEffect)
	return Finding{
		Guideline: g.Name,
		Kind:      g.Kind,
		Scenario:  sc,
		Left: Side{
			Expr: g.Left.String(), Winner: winnersOf(g.Left, sc, winner),
			Score: v.LeftScore, Samples: left,
		},
		Right: Side{
			Expr: g.Right.String(), Winner: winnersOf(g.Right, sc, winner),
			Score: v.RightScore, Samples: right,
		},
		CliffDelta: v.CliffDelta,
		Shift:      v.Shift,
		RelShift:   v.RelShift,
		Violated:   v.Violated,
	}, nil
}

// adoptIterations returns the benchmark-loop length that lets a brute-force
// selector decide over nfns candidates at evalsPerFn measurements each, plus
// a few post-decision iterations proving the winner runs steady-state.
func adoptIterations(nfns, evalsPerFn int) int {
	return nfns*evalsPerFn + 3
}

// adopt closes the feedback loop for one violated guideline: it re-runs a
// real ADCL tuning round on the scenario's machine with the operation's
// function set extended by the promoted mock, the promotion logged in the
// selection audit (obs.AuditMock). The registration records whether the
// selector then actually chose the mock — adoption is a measurement, not a
// decree: if the tuned set wins the rematch inside the tuning loop's
// conditions, the mock stays a candidate without becoming the winner.
func adopt(sc Scenario, g Guideline, mock string) (Registration, error) {
	provenance := fmt.Sprintf("guideline=%s scenario=%s", g.Name, sc)
	run, err := sc.world()
	if err != nil {
		return Registration{}, err
	}
	reg := Registration{Guideline: g.Name, Op: g.Op, Mock: mock, Scenario: sc, Provenance: provenance}
	var buildErr error
	var audit *obs.Audit
	run(func(c *mpi.Comm) {
		fs, err := opSet(c, g.Op, sc.Size, []string{mock})
		if err != nil {
			if c.Rank() == 0 {
				buildErr = err
			}
			return
		}
		sel := core.NewBruteForce(len(fs.Fns), sc.Evals)
		var aud *obs.Audit
		if c.Rank() == 0 {
			aud = core.AttachAudit(sel, fs)
			aud.Mock(fs.IndexOf(mock), provenance)
		}
		req := core.MustRequest(fs, sel, c.Now)
		timer := core.MustTimer(c.Now, req)
		for it := 0; it < adoptIterations(len(fs.Fns), sc.Evals); it++ {
			timer.Start()
			req.Init()
			req.Progress()
			req.Wait()
			core.StopMaybeSynced(c, timer, req)
		}
		if c.Rank() == 0 {
			if w := req.Winner(); w != nil {
				reg.Chosen = w.Name
			}
			reg.Evals = sel.Evals()
			audit = aud
		}
	})
	if buildErr != nil {
		return reg, buildErr
	}
	reg.Adopted = reg.Chosen == mock
	reg.Audit = audit
	return reg, nil
}
