package bench

import (
	"fmt"
	"strings"

	"nbctune/internal/fft"
	"nbctune/internal/guideline"
	"nbctune/internal/platform"
)

// The catalogue: every scenario grid the repository runs, defined once. The
// three aggregate suites reproduce the paper's statistics (§IV-A, §IV-B) and
// the E15 scale sweep; one suite per paper figure reproduces Figs 2-7
// (micro-benchmark) and Figs 9-12 (3D-FFT kernel); the guidelines suite is
// the E14 performance-guideline audit. fast=true is the scale of the
// committed results/ files; fast=false approaches the paper's process and
// iteration counts. cmd/sweep -suite NAME runs any of them.

// Suite is one named scenario grid and the way it is measured and rendered.
// A driver may rewrite the run-wide spec fields (Observe, Data, Chaos)
// of every scenario before calling Run.
type Suite struct {
	Name       string
	Micro      []MicroSpec          // micro-benchmark scenarios, or
	FFT        []FFTSpec            // 3D-FFT kernel scenarios, or
	Guidelines []guideline.Scenario // guideline-audit scenarios

	// Selectors, on a micro suite, runs the verification methodology: every
	// fixed implementation beside these ADCL selectors, one runner job per
	// scenario. Without it only fixed implementations are measured, one job
	// per (scenario, implementation): the first Impls of each function set,
	// all of them when Impls is 0.
	Selectors []string
	Impls     int
	// Flavors, on an FFT suite, are the kernel flavors compared per scenario
	// (Figs 9-12); nil is the §IV-B LibNBC-vs-ADCL statistic.
	Flavors []fft.Flavor

	tables func(s *Suite, o *Outcome) []*Table
}

// Outcome is what running a suite produced: the tables to print and the
// machine-readable form they are rendered from.
type Outcome struct {
	Tables []*Table
	// Summary holds one row per scenario; set for every suite but the
	// guideline audit.
	Summary *SweepSummary
	// Guidelines is the guideline suite's report, its machine-readable form
	// in place of a Summary: findings with their raw samples.
	Guidelines *guideline.Report
}

// Traces reports whether Run hands recorders to its trace sink: only the
// per-implementation and per-flavor matrices run one traceable world per job.
func (s *Suite) Traces() bool {
	return s.Selectors == nil && (s.Micro != nil || s.Flavors != nil)
}

// Run executes the suite's scenarios on the experiment runner and renders
// its tables from the outcome's summary (the guideline audit: its report). A
// non-nil trace receives the recorder of every run of a per-implementation
// or per-flavor matrix; the aggregate suites export none.
func (s *Suite) Run(opt RunOptions, trace TraceSink) (*Outcome, error) {
	o := &Outcome{}
	sum := &SweepSummary{CodeVersion: summaryFormat} // a matrix's: rows alone
	var err error
	switch {
	case s.Selectors != nil:
		var st *SweepStats
		if st, err = VerificationSweepOpts(s.Micro, s.Selectors, opt); err == nil {
			sum = st.Summary()
		}
	case s.Micro != nil:
		var fixed [][]MicroResult
		fixed, err = FixedMatrix(s.Micro, s.Impls, opt, trace)
		for i, rs := range fixed {
			sum.Rows = append(sum.Rows, microRow(s.Micro[i], rs))
		}
	case s.Flavors != nil:
		var cells [][]FFTResult
		cells, err = fftMatrix(s.FFT, s.Flavors, opt, trace)
		for _, rs := range cells {
			sum.Rows = append(sum.Rows, fftRow(rs...))
		}
	case s.Guidelines != nil:
		o.Guidelines, err = guideline.Run(guideline.Config{
			Scenarios: s.Guidelines, Adopt: true,
			Workers: opt.Workers, Cache: opt.Cache, Progress: opt.Progress,
		})
	default:
		var st *FFTSweepStats
		if st, err = FFTSweepOpts(s.FFT, opt); err == nil {
			sum = st.Summary()
		}
	}
	if err != nil {
		return nil, err
	}
	if o.Guidelines == nil {
		sum.Suite, sum.Scenarios = s.Name, len(sum.Rows)
		o.Summary = sum
	}
	o.Tables = s.tables(s, o)
	return o, nil
}

// catalogue lists the suites in the order SuiteNames reports them.
var catalogue = []struct {
	name  string
	build func(fast bool) Suite
}{
	{"verification", verificationSuite},
	{"fft", fftSuite},
	{"scale", scaleSuite},
	{"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4}, {"fig5", fig5}, {"fig6", fig6}, {"fig7", fig7},
	{"fig9", fig9}, {"fig10", fig10}, {"fig11", fig11}, {"fig12", fig12},
	{"guidelines", guidelines},
}

// bundles name several suites run back to back: the content of
// results/microbench.txt and results/fftbench.txt.
var bundles = []struct {
	name    string
	members []string
}{
	{"figs-micro", []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}},
	{"figs-fft", []string{"fig9", "fig10", "fig11", "fig12"}},
}

// SuiteNames lists every name Suites resolves, single suites before bundles.
func SuiteNames() []string {
	var names []string
	for _, c := range catalogue {
		names = append(names, c.name)
	}
	for _, b := range bundles {
		names = append(names, b.name)
	}
	return names
}

// Suites resolves a catalogue name to the suites it runs, in order: one for
// a single suite, several for a bundle.
func Suites(name string, fast bool) ([]Suite, error) {
	members := []string{name}
	for _, b := range bundles {
		if b.name == name {
			members = b.members
		}
	}
	var out []Suite
	for _, m := range members {
		for _, c := range catalogue {
			if c.name == m {
				s := c.build(fast)
				s.Name = m
				out = append(out, s)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown suite %q (have %s)", name, strings.Join(SuiteNames(), ", "))
	}
	return out, nil
}

func preset(name string) platform.Platform {
	p, err := platform.ByName(name)
	if err != nil {
		panic(err) // the catalogue names built-in presets only
	}
	return p
}

// rateTable is the per-selector correct-decision table of a verification
// sweep.
func rateTable(title string, sum *SweepSummary) *Table {
	t := NewTable(title, "selector", "correct", "total", "rate")
	for _, sel := range sum.Selectors {
		t.AddRow(sel.Name, sel.Correct, sel.Total, fmt.Sprintf("%.1f%%", sel.Rate*100))
	}
	return t
}

func verificationSuite(fast bool) Suite {
	return Suite{
		Micro:     VerificationScenarios(fast),
		Selectors: []string{"brute-force", "attr-heuristic", "factorial-2k"},
		tables: func(s *Suite, o *Outcome) []*Table {
			sum := o.Summary
			return []*Table{rateTable(fmt.Sprintf("Verification sweep: %d scenarios (paper §IV-A: 324 runs, 90%% / 92%%)", sum.Scenarios), sum)}
		},
	}
}

// scaleSuite is E15: the scalable function sets on the bgp-16k torus at 64
// ranks vs the 1K–4K regime, where the tuned winner flips.
func scaleSuite(fast bool) Suite {
	return Suite{
		Micro:     ScaleScenarios(fast),
		Selectors: []string{"brute-force", "attr-heuristic"},
		tables: func(s *Suite, o *Outcome) []*Table {
			sum := o.Summary
			t := NewTable(fmt.Sprintf("Scale sweep: %d scenarios on bgp-16k (winner per scenario)", sum.Scenarios),
				"scenario", "best fixed", "brute-force correct")
			for _, r := range sum.Rows {
				t.AddRow(r.Scenario, r.Best, r.Correct[sum.Selectors[0].Name])
			}
			return []*Table{t, rateTable("Correct-decision rates", sum)}
		},
	}
}

func fftSuite(fast bool) Suite {
	return Suite{
		FFT: FFTScenarios(fast),
		tables: func(s *Suite, o *Outcome) []*Table {
			st := o.Summary.FFT
			t := NewTable(fmt.Sprintf("FFT sweep: %d scenarios (paper §IV-B: ADCL faster in 74%% of 393 tests, up to 40%%)", st.Total),
				"metric", "value")
			t.AddRow("adcl faster than libnbc", fmt.Sprintf("%d/%d (%.1f%%)", st.ADCLFaster, st.Total, st.FasterRate*100))
			t.AddRow("on par (within 2%)", st.OnPar)
			t.AddRow("max improvement vs libnbc", fmt.Sprintf("%.1f%%", st.MaxImprovement*100))
			return []*Table{t}
		},
	}
}

// pick returns the paper-scale value at full scale, the scaled one at fast.
func pick(fast bool, scaled, paper int) int {
	if fast {
		return scaled
	}
	return paper
}

// fig2: Ialltoall verification runs, 128KB, whale and crill at several
// process counts; fixed implementations vs ADCL selections.
func fig2(fast bool) Suite {
	grid := []struct {
		plat string
		nps  []int
	}{{"whale", []int{16, 32}}, {"crill", []int{16, 32}}}
	if !fast {
		grid[0].nps, grid[1].nps = []int{32, 128}, []int{32, 128, 256}
	}
	s := Suite{
		Selectors: []string{"brute-force", "attr-heuristic"},
		tables: func(s *Suite, o *Outcome) []*Table {
			t := NewTable("Fig 2: Ialltoall verification runs (128KB/pair, 50ms compute/iter, 5 progress calls)",
				"platform", "np", "implementation", "total_s", "correct")
			for _, row := range o.Summary.Rows {
				for _, r := range row.Runs {
					label, correct := r.Label, ""
					if sel, tuned := strings.CutPrefix(r.Label, "adcl:"); tuned {
						label, correct = r.Label+" -> "+r.Winner, fmt.Sprintf("%v", row.Correct[sel])
					}
					t.AddRow(row.Platform, row.Procs, label, Sec(r.Total), correct)
				}
			}
			return []*Table{t}
		},
	}
	for _, g := range grid {
		for _, np := range g.nps {
			s.Micro = append(s.Micro, MicroSpec{
				Platform: preset(g.plat), Procs: np, MsgSize: 128 * 1024, Op: OpIalltoall,
				ComputePerIter: 0.05, Iterations: pick(fast, 20, 40), ProgressCalls: 5, Seed: 21, EvalsPerFn: 2,
			})
		}
	}
	return s
}

// fixedTable renders a fixed-implementation matrix: the lead columns come
// from each scenario's keys, then implementation, total_s and periter_ms.
func fixedTable(title string, leadCols []string, lead func(SummaryRow) []any) func(*Suite, *Outcome) []*Table {
	return func(s *Suite, o *Outcome) []*Table {
		t := NewTable(title, append(leadCols, "implementation", "total_s", "periter_ms")...)
		for _, row := range o.Summary.Rows {
			for _, r := range row.Runs {
				t.AddRow(append(lead(row), r.Label, Sec(r.Total), Ms(r.PerIter))...)
			}
		}
		return []*Table{t}
	}
}

// fig3: network influence — same scenario on whale (InfiniBand) vs
// whale-tcp (GigE).
func fig3(_ bool) Suite {
	s := Suite{tables: fixedTable(
		"Fig 3: Ialltoall np=32, 128KB, 50ms compute/iter, 5 progress calls — whale vs whale-tcp",
		[]string{"platform"}, func(r SummaryRow) []any { return []any{r.Platform} })}
	for _, name := range []string{"whale", "whale-tcp"} {
		s.Micro = append(s.Micro, MicroSpec{
			Platform: preset(name), Procs: 32, MsgSize: 128 * 1024, Op: OpIalltoall,
			ComputePerIter: 0.05, Iterations: 30, ProgressCalls: 5, Seed: 31,
		})
	}
	return s
}

// fig4: message-length influence on crill — 1KB vs 128KB per pair. The
// small-message effect needs scale, so the 1KB cell runs 256 ranks at both
// scales.
func fig4(fast bool) Suite {
	np := pick(fast, 128, 256)
	s := Suite{tables: fixedTable(
		fmt.Sprintf("Fig 4: Ialltoall crill, 10s compute, 5 progress calls — 1KB (np=256) vs 128KB (np=%d)", np),
		[]string{"msg", "np"}, func(r SummaryRow) []any { return []any{r.Size, r.Procs} })}
	for _, c := range []struct {
		msg, np, iters int
		compute        float64
	}{
		{1024, 256, 15, 1e-3},
		{128 * 1024, np, 20, 1e-2},
	} {
		s.Micro = append(s.Micro, MicroSpec{
			Platform: preset("crill"), Procs: c.np, MsgSize: c.msg, Op: OpIalltoall,
			ComputePerIter: c.compute, Iterations: c.iters, ProgressCalls: 5, Seed: 41,
		})
	}
	return s
}

// fig5: process-count influence on whale — 1KB, 100 progress calls, 32 vs
// 128 procs (already the paper's counts: one scale).
func fig5(_ bool) Suite {
	s := Suite{tables: fixedTable(
		"Fig 5: Ialltoall whale, 1KB, 100 progress calls — 32 vs 128 procs",
		[]string{"np"}, func(r SummaryRow) []any { return []any{r.Procs} })}
	for _, np := range []int{32, 128} {
		s.Micro = append(s.Micro, MicroSpec{
			Platform: preset("whale"), Procs: np, MsgSize: 1024, Op: OpIalltoall,
			ComputePerIter: 1e-3, Iterations: 40, ProgressCalls: 100, Seed: 51,
		})
	}
	return s
}

// fig6: progress-call overhead — Ibcast whale 32 procs, 1KB, first
// implementation only: execution time rises when too many progress calls are
// inserted. Observed runs add the overlap column.
func fig6(_ bool) Suite {
	s := Suite{
		Impls: 1,
		tables: func(s *Suite, o *Outcome) []*Table {
			cols := []string{"progress_calls", "implementation", "periter_ms"}
			observed := s.Micro[0].Observe // set by the driver
			if observed {
				cols = append(cols, "overlap")
			}
			t := NewTable("Fig 6: Ibcast whale np=32, 1KB, 5ms compute/iter — time vs number of progress calls", cols...)
			for _, r := range o.Summary.Rows {
				row := []any{r.Progress, r.Runs[0].Label, Ms(r.Runs[0].PerIter)}
				if observed {
					row = append(row, fmt.Sprintf("%.3f", r.Overlap))
				}
				t.AddRow(row...)
			}
			return []*Table{t}
		},
	}
	for _, pc := range []int{1, 2, 5, 10, 100, 1000} {
		s.Micro = append(s.Micro, MicroSpec{
			Platform: preset("whale"), Procs: 32, MsgSize: 1024, Op: OpIbcast,
			ComputePerIter: 5e-3, Iterations: 30, ProgressCalls: pc, Seed: 61,
		})
	}
	return s
}

// fig7: the progress-call crossover — Ialltoall crill 32 procs, 128KB:
// pairwise wins with a single progress call, linear with more.
func fig7(_ bool) Suite {
	s := Suite{
		tables: func(s *Suite, o *Outcome) []*Table {
			t := NewTable("Fig 7: Ialltoall crill np=32, 128KB, 100ms compute/iter — best algorithm vs progress calls",
				"progress_calls", "implementation", "total_s", "periter_ms", "best")
			for _, row := range o.Summary.Rows {
				for _, r := range row.Runs {
					mark := ""
					if r.Label == row.Best {
						mark = "<--"
					}
					t.AddRow(row.Progress, r.Label, Sec(r.Total), Ms(r.PerIter), mark)
				}
			}
			return []*Table{t}
		},
	}
	for _, pc := range []int{1, 2, 5, 10, 100} {
		s.Micro = append(s.Micro, MicroSpec{
			Platform: preset("crill"), Procs: 32, MsgSize: 128 * 1024, Op: OpIalltoall,
			ComputePerIter: 0.1, Iterations: 20, ProgressCalls: pc, Seed: 71,
		})
	}
	return s
}

// fftFigure builds a Fig 9-12 suite: every pattern at every (platform, np),
// seeds counting up from seed+1 in scenario order.
func fftFigure(title string, plats []string, nps []int, iters int, seed int64, flavors ...fft.Flavor) Suite {
	s := Suite{
		Flavors: flavors,
		tables: func(s *Suite, o *Outcome) []*Table {
			t := NewTable(title, "platform", "np", "pattern", "flavor", "total_s", "periter_ms", "postlearn_ms", "note")
			for _, row := range o.Summary.Rows {
				for _, r := range row.Runs {
					note, post := "", ""
					if r.Winner != "" && r.Winner != r.Label {
						note = "winner=" + r.Winner
					}
					if r.PostLearnPerIter > 0 {
						post = Ms(r.PostLearnPerIter)
					}
					t.AddRow(row.Platform, row.Procs, row.Pattern, r.Label,
						Sec(r.Total), Ms(r.PerIter), post, note)
				}
			}
			return []*Table{t}
		},
	}
	for _, plat := range plats {
		for _, np := range nps {
			for _, pat := range fft.Patterns {
				seed++
				s.FFT = append(s.FFT, FFTSpec{
					Platform: preset(plat), Procs: np, N: 256, Pattern: pat,
					Iterations: iters, Seed: seed, EvalsPerFn: 2,
				})
			}
		}
	}
	return s
}

// fftGrid is the process counts and iteration count of Figs 9-11. The paper
// ran 160, 358, 500 and 1024 ranks for 350 iterations; the scaled values keep
// the same per-pair message regimes.
func fftGrid(fast bool) ([]int, int) {
	if fast {
		return []int{32, 128}, 40
	}
	return []int{64, 128}, 100
}

// fig9: LibNBC vs ADCL on crill (paper: 160 and 500 procs).
func fig9(fast bool) Suite {
	nps, iters := fftGrid(fast)
	return fftFigure("Fig 9: 3D FFT crill — LibNBC vs ADCL per pattern",
		[]string{"crill"}, nps, iters, 91, fft.FlavorNBC, fft.FlavorADCL)
}

// fig10: LibNBC vs ADCL vs blocking MPI on whale (paper: 160 and 358 procs).
func fig10(fast bool) Suite {
	nps, iters := fftGrid(fast)
	return fftFigure("Fig 10: 3D FFT whale — LibNBC vs ADCL vs blocking MPI",
		[]string{"whale"}, nps, iters, 91, fft.FlavorNBC, fft.FlavorADCL, fft.FlavorMPI)
}

// fig11: the extended ADCL function set (including the blocking alltoall)
// vs MPI on whale and crill, with the learning phase split out.
func fig11(fast bool) Suite {
	nps, iters := fftGrid(fast)
	return fftFigure("Fig 11: 3D FFT — extended ADCL function set (incl. blocking) vs MPI; postlearn_ms excludes the learning phase",
		[]string{"whale", "crill"}, nps, iters, 91, fft.FlavorADCLExt, fft.FlavorMPI)
}

// fig12: the BlueGene/P-like platform (paper: 1024 procs; scaled here —
// DESIGN.md substitution 3).
func fig12(fast bool) Suite {
	return fftFigure("Fig 12: 3D FFT BlueGene/P-like — extended ADCL vs MPI vs LibNBC (scaled from 1024 ranks)",
		[]string{"bgp"}, []int{pick(fast, 128, 256)}, pick(fast, 20, 40), 121,
		fft.FlavorADCLExt, fft.FlavorMPI, fft.FlavorNBC)
}

// guidelines: the E14 audit of Hunold-style performance guidelines
// (internal/guideline), every violated dominance guideline's mock adopted
// into a fresh tuning round. The fast grid is results/guideline_report.json's
// smoke matrix; both grids run on the clean machine unless -chaos names one.
func guidelines(fast bool) Suite {
	grid := guideline.FullScenarios
	if fast {
		grid = guideline.SmokeScenarios
	}
	return Suite{Guidelines: grid(42, "", 1), tables: guidelineTables}
}

// guidelineTables renders a guideline report: one row per finding, then the
// feedback loop's registrations, if any.
func guidelineTables(_ *Suite, o *Outcome) []*Table {
	r := o.Guidelines
	t := NewTable(fmt.Sprintf("Guideline report: %d findings over %d scenarios (%d leaf measurements), %d violations, tol %.0f%%, min effect %.2f",
		len(r.Findings), r.Scenarios, r.Measurements, r.Violations, r.Tol*100, r.MinEffect),
		"verdict", "guideline", "scenario", "left", "right", "delta", "rel-shift")
	for _, f := range r.Findings {
		verdict := "ok"
		if f.Violated {
			verdict = "VIOLATED"
		}
		t.AddRow(verdict, f.Guideline, f.Scenario, fmt.Sprintf("%.3gs", f.Left.Score), fmt.Sprintf("%.3gs", f.Right.Score),
			fmt.Sprintf("%+.2f", f.CliffDelta), fmt.Sprintf("%+.1f%%", f.RelShift*100))
	}
	if len(r.Registrations) == 0 {
		return []*Table{t}
	}
	reg := NewTable(fmt.Sprintf("Feedback loop: %d mock registrations (adopted = the selector chose the mock)", len(r.Registrations)),
		"guideline", "mock", "scenario", "winner", "evals", "adopted")
	for _, g := range r.Registrations {
		reg.AddRow(g.Guideline, g.Mock, g.Scenario, g.Chosen, g.Evals, g.Adopted)
	}
	return []*Table{t, reg}
}
