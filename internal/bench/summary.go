package bench

import (
	"encoding/json"
	"io"

	"nbctune/internal/runner"
)

// summaryFormat labels the summary format in every SweepSummary's
// code_version field. It names the layout, not the code that computed the
// numbers: the committed summaries under results/ carry it.
const summaryFormat = "nbctune-v1"

// SweepSummary is the machine-readable counterpart of the sweep tables:
// cmd/sweep writes it to results/sweep_summary.json so downstream tooling
// does not have to scrape aligned text. Construction is fully deterministic
// — rows follow scenario order, selector blocks follow selector order, and
// JSON maps are key-sorted by encoding/json — so a summary is byte-identical
// for any worker count and for cached vs fresh runs.
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

// SummaryRow is one scenario's outcome. Verification rows fill Best/
// BestTotal/Correct; FFT rows fill NBCTotal/ADCLTotal/Winner/Improvement.
type SummaryRow struct {
	Scenario    string          `json:"scenario"`
	Best        string          `json:"best,omitempty"`
	BestTotal   float64         `json:"best_total,omitempty"`
	Correct     map[string]bool `json:"correct,omitempty"`
	NBCTotal    float64         `json:"nbc_total,omitempty"`
	ADCLTotal   float64         `json:"adcl_total,omitempty"`
	Winner      string          `json:"winner,omitempty"`
	Improvement float64         `json:"improvement,omitempty"`
	// Overlap is the scenario's communication-overlap ratio (verification:
	// of the best fixed run; FFT: of the ADCL run). Present only when the
	// sweep ran with observation enabled (cmd/sweep -observe).
	Overlap float64 `json:"overlap,omitempty"`
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
		row := SummaryRow{
			Scenario:  v.Spec.String(),
			Best:      v.Fixed[v.Best].Impl,
			BestTotal: v.Fixed[v.Best].Total,
			Correct:   map[string]bool{},
			Overlap:   v.Fixed[v.Best].Overlap,
		}
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
		sum.Rows = append(sum.Rows, SummaryRow{
			Scenario:    nbcR.Spec.String(),
			NBCTotal:    nbcR.Total,
			ADCLTotal:   adclR.Total,
			Winner:      adclR.Winner,
			Improvement: (nbcR.Total - adclR.Total) / nbcR.Total,
			Overlap:     adclR.Overlap,
		})
	}
	return sum
}

// WriteJSON writes the summary as indented JSON.
func (s *SweepSummary) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteSummaryFile writes the summary to path atomically, creating parent
// directories as needed: an interrupted sweep leaves the previous file whole.
func WriteSummaryFile(path string, s *SweepSummary) error {
	return runner.WriteFileAtomic(path, s.WriteJSON)
}
