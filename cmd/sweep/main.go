// Command sweep runs any scenario grid of the catalogue (internal/bench):
//
//   - suite "verification" (§IV-A): the correct-decision rate of the ADCL
//     selection logics over a grid of micro-benchmark scenarios (paper: 90%
//     brute force, 92% attribute heuristic over 324 runs).
//   - suite "fft" (§IV-B): the fraction of 3D-FFT kernel tests where ADCL
//     beats LibNBC, and the maximum improvement (paper: 74% of 393 tests,
//     up to 40%).
//   - suite "scale" (E15): the scalable function sets on the bgp-16k torus.
//   - suites "fig2".."fig7" and "fig9".."fig12": one paper figure each; the
//     bundles "figs-micro" and "figs-fft" print results/microbench.txt and
//     results/fftbench.txt. -fast is the scale of the committed files.
//   - suite "guidelines" (E14): the performance-guideline audit
//     (internal/guideline); every violated guideline's mock is adopted into
//     a fresh tuning round, and -history files the mocks the selector chose.
//
// -chaos and -chaos-seed set the machine of every scenario of every suite,
// the guideline grids included. Without -chaos every scenario is clean and
// -chaos-seed, with no profile to seed, is refused, as is any flag that no
// suite of the run acts on. Speculation is a selector name,
// speculative+<inner>.
//
// Scenarios execute on the experiment runner (internal/runner): -jobs
// parallelizes across a worker pool, -cache DIR persists every completed
// scenario in a content-addressed store so re-runs of the same build are
// nearly free and an interrupted sweep resumes where it stopped. Aggregated
// output is byte-identical for every -jobs value and for cached vs fresh runs.
// Every suite renders its tables from a machine-readable summary, one row
// per scenario with every run measured on it (bench.SummaryRow); -out writes
// it (for guidelines, the report; for a bundle, every member's summary in
// one bench.BundleSummary). Without -out no file is written. EXPERIMENTS.md
// gives the one command behind each committed results/ file.
//
// Example:
//
//	sweep -suite verification -fast -jobs 8 -cache ~/.cache/nbctune
//	sweep -suite fft
//	sweep -suite fig6 -fast -observe       # Fig 6 with the overlap column
//	sweep -suite fig9 -fast -trace traces/ # one Perfetto timeline per run
//	sweep -suite guidelines -fast -out results/guideline_report.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nbctune/internal/bench"
	"nbctune/internal/chaos/profiles"
	"nbctune/internal/core"
	"nbctune/internal/kb"
	"nbctune/internal/obs"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

func main() {
	var (
		suite    = flag.String("suite", "verification", "scenario grid: "+strings.Join(bench.SuiteNames(), ", "))
		fast     = flag.Bool("fast", false, "trimmed scenario grid (minutes instead of hours; the scale of the committed results/ files)")
		quiet    = flag.Bool("quiet", false, "suppress per-scenario progress lines")
		jobs     = flag.Int("jobs", 0, "parallel scenario workers (0 = GOMAXPROCS, 1 = sequential)")
		cacheDir = flag.String("cache", "", "result store directory: serve and persist scenario results there, for this build of sweep only; an interrupted sweep resumes from it (empty = no store)")
		out      = flag.String("out", "", "machine-readable summary path: one row per scenario with every run (guidelines: the report; a bundle: every member's summary); empty = no file")
		observe  = flag.Bool("observe", false, "attach obs recorders so summary rows and the Fig 6 table carry overlap ratios (timing-neutral)")
		traceDir = flag.String("trace", "", "directory for one Chrome trace-event JSON per run of a figure matrix (fig3..fig7, fig9..fig12; open in Perfetto)")
		data     = flag.Bool("data", false, "real payloads with per-iteration data verification (virtual times unchanged; slower)")
		chaosStr = flag.String("chaos", "off", "fault/noise injection profile: off, "+strings.Join(profiles.Names(), ", "))
		chaosSd  = flag.Int64("chaos-seed", 1, "seed for the chaos injector's deterministic streams")
		histPath = flag.String("history", "", "file every scenario's tuned winner (guidelines: every adopted mock) in this history file, the one tune -history reads")
	)
	flag.Parse()
	if err := runner.CheckWorkers("jobs", *jobs); err != nil {
		fail(err)
	}
	suites, err := bench.Suites(*suite, *fast)
	if err != nil {
		fail(err)
	}
	if _, err := profiles.ByName(*chaosStr); err != nil {
		fail(err)
	}
	chaosName := *chaosStr
	if chaosName == "off" {
		chaosName = "" // canonical clean spelling: specs fingerprint identically to pre-chaos runs
	}
	if chaosName == "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "chaos-seed" {
				fail(fmt.Errorf("-chaos-seed: no -chaos profile to seed"))
			}
		})
	}

	// A flag is refused, not ignored, when no suite of the run acts on it.
	// The history file acts on the selectors' winners and on the guideline
	// audit's adopted mocks, -trace on the runs of a per-implementation or
	// per-flavor matrix.
	var selects, traces, audits bool
	for _, s := range suites {
		selects = selects || len(s.Selectors) > 0
		traces = traces || s.Traces()
		audits = audits || s.Guidelines != nil
	}
	if audits {
		// A guideline leaf is an unobserved virtual measurement (DESIGN.md §5).
		for _, f := range []struct {
			name string
			set  bool
		}{{"observe", *observe}, {"data", *data}} {
			if f.set {
				fail(fmt.Errorf("-%s: guidelines measures unobserved virtual leaves", f.name))
			}
		}
	}
	if *histPath != "" && !selects && !audits {
		fail(fmt.Errorf("-history: %s runs no selection logic (verification, scale, fig2 and guidelines do)", *suite))
	}
	if *traceDir != "" && !traces {
		fail(fmt.Errorf("-trace: %s exports no trace (fig3..fig7 and fig9..fig12 do)", *suite))
	}
	// Opened before anything runs, so a corrupt or old-format file is refused
	// up front, not after the sweep.
	hist, err := kb.Open(kb.StoreOptions{SnapshotPath: *histPath})
	if err != nil {
		fail(err)
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	opt := bench.RunOptions{Workers: *jobs, Progress: progress}
	if *cacheDir != "" {
		c, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fail(err)
		}
		opt.Cache = c
	}

	var trace bench.TraceSink
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fail(err)
		}
		trace = func(cell string, rec *obs.Recorder) error { return writeTrace(*traceDir, cell, rec) }
	}

	var outs []*bench.Outcome
	var learned []kb.Record
	for i := range suites {
		s := &suites[i]
		// The run-wide settings, laid over every scenario of the grid.
		for j := range s.Micro {
			m := &s.Micro[j]
			m.Observe, m.Data = m.Observe || *observe, m.Data || *data
			if chaosName != "" {
				m.Chaos, m.ChaosSeed = chaosName, *chaosSd
			}
		}
		for j := range s.FFT {
			f := &s.FFT[j]
			f.Observe, f.Data = f.Observe || *observe, f.Data || *data
			if chaosName != "" {
				f.Chaos, f.ChaosSeed = chaosName, *chaosSd
			}
		}
		for j := range s.Guidelines {
			if chaosName != "" {
				s.Guidelines[j].Chaos, s.Guidelines[j].ChaosSeed = chaosName, *chaosSd
			}
		}
		o, err := s.Run(opt, trace)
		if err != nil {
			fail(err)
		}
		for _, t := range o.Tables {
			t.Render(os.Stdout)
			fmt.Println()
		}
		outs = append(outs, o)
		learned = append(learned, winners(o)...)
	}

	if *out != "" {
		if err := bench.WriteOutcomes(*out, *suite, outs); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "summary written to %s\n", *out)
	}

	if *histPath != "" {
		if err := fileWinners(hist, *histPath, learned, os.Stderr); err != nil {
			fail(err)
		}
	}
}

// winners are the tuned decisions of a run in the form tune -history looks
// them up: keyed by the same (HistoryKey, EnvFingerprint) pair. A row of the
// verification methodology (it carries selector verdicts) measured every
// fixed implementation, so its best is exactly what a tuner would commit;
// tune places ranks cyclically, so a row measured under another placement
// is filed under an environment that names it, where no tune lookup hits. A
// guideline audit contributes every mock its tuning round adopted, with the
// evaluations that cost — tune replays a recorded catalogue mock of its op.
// The other suites decide nothing a command looks up (a 3D-FFT kernel's
// winner has no tune scenario), so they have nothing to file.
func winners(o *bench.Outcome) []kb.Record {
	var recs []kb.Record
	switch {
	case o.Summary != nil:
		for _, r := range o.Summary.Rows {
			pl, err := platform.ByName(r.Platform)
			if r.Correct == nil || err != nil {
				continue
			}
			env := core.EnvFingerprint(pl.Net.Topology.String(), r.Chaos, r.ChaosSeed)
			if r.Placement != "" {
				env = strings.TrimPrefix(env+"|placement="+r.Placement, "|")
			}
			recs = append(recs, kb.Record{
				Key: core.HistoryKey(r.Op, r.Platform, r.Procs, r.Size), Env: env, Winner: r.Best, Score: r.BestTotal,
			})
		}
	case o.Guidelines != nil:
		for _, reg := range o.Guidelines.Registrations {
			pl, err := platform.ByName(reg.Scenario.Platform)
			if !reg.Adopted || err != nil {
				continue
			}
			recs = append(recs, kb.Record{
				Key:    core.HistoryKey(reg.Op, reg.Scenario.Platform, reg.Scenario.Procs, reg.Scenario.Size),
				Env:    core.EnvFingerprint(pl.Net.Topology.String(), reg.Scenario.Chaos, reg.Scenario.ChaosSeed),
				Winner: reg.Chosen,
				Evals:  reg.Evals,
			})
		}
	}
	return recs
}

// fileWinners puts the winners into the history store, writes its file and
// reports on diag how many records the file took (a stored better score
// keeps its record); a failed write is the command's failure.
func fileWinners(hist *kb.Store, path string, recs []kb.Record, diag io.Writer) error {
	n := hist.PutBatch(recs)
	if err := hist.Flush(false); err != nil {
		return fmt.Errorf("-history: winners not filed: %w", err)
	}
	fmt.Fprintf(diag, "%d tuned winners filed in %s\n", n, path)
	return nil
}

// writeTrace exports one traced run as dir/<cell>.trace.json, the cell name
// reduced to file-name-safe characters.
func writeTrace(dir, cell string, rec *obs.Recorder) error {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, cell) + ".trace.json"
	path := filepath.Join(dir, name)
	if err := runner.WriteFileAtomic(path, rec.WriteChromeTrace); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace written: %s\n", path)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
