package bench

import (
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

// summaryFormat labels the summary format in every SweepSummary's
// code_version field. It names the layout, not the code that computed the
// numbers: the committed summaries under results/ carry it.
const summaryFormat = "nbctune-v1"

// SweepSummary is the machine-readable counterpart of the sweep tables:
// cmd/sweep -out writes it (results/sweep_summary.json) so downstream tooling
// does not have to scrape aligned text. Every suite but the guideline audit
// fills one, and its tables are rendered from it. Construction is fully
// deterministic — rows follow scenario order, runs follow implementation,
// flavor or selector order, and JSON maps are key-sorted by encoding/json —
// so a summary is byte-identical for any worker count and for cached vs
// fresh runs.
type SweepSummary struct {
	Suite       string            `json:"suite"`
	CodeVersion string            `json:"code_version"`
	Scenarios   int               `json:"scenarios"`
	Selectors   []SelectorSummary `json:"selectors,omitempty"`
	FFT         *FFTSummary       `json:"fft,omitempty"`
	Rows        []SummaryRow      `json:"rows"`
}

// SelectorSummary is one selection logic's aggregate correct-decision rate
// (paper §IV-A).
type SelectorSummary struct {
	Name    string  `json:"name"`
	Correct int     `json:"correct"`
	Total   int     `json:"total"`
	Rate    float64 `json:"rate"`
}

// FFTSummary is the §IV-B aggregate: how often ADCL beat LibNBC and by how
// much at best.
type FFTSummary struct {
	Total          int     `json:"total"`
	ADCLFaster     int     `json:"adcl_faster"`
	OnPar          int     `json:"on_par"`
	MaxImprovement float64 `json:"max_improvement"`
	FasterRate     float64 `json:"faster_rate"`
}

// SummaryRow is one scenario's outcome, the one per-scenario result shape of
// every suite: its keys, every run measured on it, and the suite's verdict.
// Micro-benchmark rows with fixed runs fill Best/BestTotal (the fastest
// fixed run measured), verification rows also Correct; §IV-B rows fill
// NBCTotal/ADCLTotal/Winner/Improvement.
type SummaryRow struct {
	Scenario  string `json:"scenario"`
	Platform  string `json:"platform,omitempty"`
	Procs     int    `json:"np,omitempty"`
	Op        string `json:"op,omitempty"`        // micro-benchmark op
	Pattern   string `json:"pattern,omitempty"`   // 3D-FFT pattern
	Size      int    `json:"size,omitempty"`      // message bytes, or FFT grid points per dimension
	Progress  int    `json:"progress,omitempty"`  // progress calls per iteration, or per FFT tile (0: the kernel's default)
	Placement string `json:"placement,omitempty"` // "block"; omitted when cyclic
	Chaos     string `json:"chaos,omitempty"`
	ChaosSeed int64  `json:"chaos_seed,omitempty"`

	Best        string          `json:"best,omitempty"`
	BestTotal   float64         `json:"best_total,omitempty"`
	Correct     map[string]bool `json:"correct,omitempty"`
	NBCTotal    float64         `json:"nbc_total,omitempty"`
	ADCLTotal   float64         `json:"adcl_total,omitempty"`
	Winner      string          `json:"winner,omitempty"`
	Improvement float64         `json:"improvement,omitempty"`
	// Overlap is the scenario's communication-overlap ratio (micro: of the
	// best fixed run; §IV-B: of the ADCL run). Present only when the sweep
	// ran with observation enabled (cmd/sweep -observe).
	Overlap float64 `json:"overlap,omitempty"`
	// Runs holds every implementation, flavor or selector run of the
	// scenario, in the order the suite measured them.
	Runs []RunSummary `json:"runs,omitempty"`
}

// RunSummary is one run of a scenario: a MicroResult or FFTResult without
// its spec and observation metrics. The decision fields are those of the
// run's selection logic (a fixed run decides its own implementation at
// once); zero values are omitted.
type RunSummary struct {
	Label            string  `json:"label"`
	Total            float64 `json:"total"`
	PerIter          float64 `json:"per_iter"`
	Winner           string  `json:"winner,omitempty"`
	Evals            int     `json:"evals,omitempty"`
	DecidedIter      int     `json:"decided_iter,omitempty"`
	PostLearnPerIter float64 `json:"post_learn_per_iter,omitempty"`
	LearnTime        float64 `json:"learn_time,omitempty"` // 3D-FFT runs only
}

// BundleSummary is what cmd/sweep -out writes for a bundle: every member
// suite's summary, in run order.
type BundleSummary struct {
	Bundle      string          `json:"bundle"`
	CodeVersion string          `json:"code_version"`
	Suites      []*SweepSummary `json:"suites"`
}

// placementName keys a row's placement: "block", or "" for the cyclic default.
func placementName(p platform.Placement) string {
	if p == platform.Block {
		return "block"
	}
	return ""
}

// microRow is a micro-benchmark scenario's keys and runs, the fastest of its
// fixed runs as Best.
func microRow(s MicroSpec, fixed []MicroResult, tuned ...MicroResult) SummaryRow {
	row := SummaryRow{
		Scenario: s.String(), Platform: s.Platform.Name, Procs: s.Procs, Op: s.Op, Size: s.MsgSize,
		Progress: s.ProgressCalls, Placement: placementName(s.Placement), Chaos: s.Chaos, ChaosSeed: s.ChaosSeed,
	}
	add := func(r MicroResult) {
		row.Runs = append(row.Runs, RunSummary{
			Label: r.Impl, Total: r.Total, PerIter: r.PerIter, Winner: r.Winner,
			Evals: r.Evals, DecidedIter: r.DecidedIter, PostLearnPerIter: r.PostLearnPerIter,
		})
	}
	best := 0
	for i, r := range fixed {
		if r.Total < fixed[best].Total {
			best = i
		}
		add(r)
	}
	for _, r := range tuned {
		add(r)
	}
	row.Best, row.BestTotal, row.Overlap = fixed[best].Impl, fixed[best].Total, fixed[best].Overlap
	return row
}

// fftRow is a 3D-FFT scenario's keys and its runs, one per flavor.
func fftRow(rs ...FFTResult) SummaryRow {
	s := rs[0].Spec
	row := SummaryRow{
		Scenario: s.String(), Platform: s.Platform.Name, Procs: s.Procs, Pattern: s.Pattern.String(), Size: s.N,
		Progress: s.ProgressPerTile, Placement: placementName(s.Placement), Chaos: s.Chaos, ChaosSeed: s.ChaosSeed,
	}
	for _, r := range rs {
		row.Runs = append(row.Runs, RunSummary{
			Label: r.Label, Total: r.Total, PerIter: r.PerIter, Winner: r.Winner, Evals: r.Evals,
			DecidedIter: r.DecidedIter, PostLearnPerIter: r.PostLearnPerIter, LearnTime: r.LearnTime,
		})
	}
	return row
}

// Summary renders the verification sweep as a SweepSummary.
func (s *SweepStats) Summary() *SweepSummary {
	sum := &SweepSummary{
		Suite:       "verification",
		CodeVersion: summaryFormat,
		Scenarios:   s.Total,
	}
	for _, sel := range s.Selectors {
		sum.Selectors = append(sum.Selectors, SelectorSummary{
			Name: sel, Correct: s.Correct[sel], Total: s.Total, Rate: s.Rate(sel),
		})
	}
	for _, v := range s.Runs {
		row := microRow(v.Spec, v.Fixed, v.ADCL...)
		row.Correct = map[string]bool{}
		for j, sel := range s.Selectors {
			row.Correct[sel] = v.Correct(j)
		}
		sum.Rows = append(sum.Rows, row)
	}
	return sum
}

// Summary renders the FFT sweep as a SweepSummary.
func (s *FFTSweepStats) Summary() *SweepSummary {
	sum := &SweepSummary{
		Suite:       "fft",
		CodeVersion: summaryFormat,
		Scenarios:   s.Total,
		FFT: &FFTSummary{
			Total: s.Total, ADCLFaster: s.ADCLFaster, OnPar: s.OnPar,
			MaxImprovement: s.MaxImprovement, FasterRate: s.FasterRate(),
		},
	}
	for _, pair := range s.Rows {
		nbcR, adclR := pair[0], pair[1]
		row := fftRow(pair[:]...)
		row.NBCTotal, row.ADCLTotal, row.Winner = nbcR.Total, adclR.Total, adclR.Winner
		row.Improvement, row.Overlap = (nbcR.Total-adclR.Total)/nbcR.Total, adclR.Overlap
		sum.Rows = append(sum.Rows, row)
	}
	return sum
}

// WriteOutcomes writes the machine-readable form of a run of the suites
// name resolves to (Suites) to path: a single suite's summary (the guideline
// audit: its report), or a bundle's members' summaries as one
// BundleSummary. The file is written atomically, creating parent
// directories as needed: an interrupted sweep leaves the previous file whole.
func WriteOutcomes(path, name string, outs []*Outcome) error {
	var v any = outs[0].Summary
	switch {
	case outs[0].Guidelines != nil:
		v = outs[0].Guidelines
	case len(outs) > 1:
		b := &BundleSummary{Bundle: name, CodeVersion: summaryFormat}
		for _, o := range outs {
			b.Suites = append(b.Suites, o.Summary)
		}
		v = b
	}
	return runner.WriteJSON(path, v)
}
