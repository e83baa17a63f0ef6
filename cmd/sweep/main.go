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
// Scenarios execute on the experiment runner (internal/runner): -jobs
// parallelizes across a worker pool, -cache DIR persists every completed
// scenario in a content-addressed store so re-runs of the same build are
// nearly free and an interrupted sweep resumes where it stopped. Aggregated
// output is byte-identical for every -jobs value and for cached vs fresh runs.
// Alongside the tables, the aggregate suites write a machine-readable
// summary (for guidelines, the report) to -out; without -out no file is
// written. EXPERIMENTS.md gives the one command behind each committed
// results/ file.
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
		csv      = flag.Bool("csv", false, "emit CSV tables")
		quiet    = flag.Bool("quiet", false, "suppress per-scenario progress lines")
		jobs     = flag.Int("jobs", 0, "parallel scenario workers (0 = GOMAXPROCS, 1 = sequential)")
		cacheDir = flag.String("cache", "", "result store directory: serve and persist scenario results there, for this build of sweep only; an interrupted sweep resumes from it (empty = no store)")
		out      = flag.String("out", "", "machine-readable summary path (verification, fft, scale, fig2 and guidelines write one; empty = no file)")
		observe  = flag.Bool("observe", false, "attach obs recorders so summary rows and the Fig 6 table carry overlap ratios (timing-neutral)")
		traceDir = flag.String("trace", "", "directory for one Chrome trace-event JSON per run of a figure matrix (fig3..fig7, fig9..fig12; open in Perfetto)")
		data     = flag.Bool("data", false, "real payloads with per-iteration data verification (virtual times unchanged; slower)")
		chaosStr = flag.String("chaos", "off", "fault/noise injection profile: off, "+strings.Join(profiles.Names(), ", "))
		chaosSd  = flag.Int64("chaos-seed", 1, "seed for the chaos injector's deterministic streams")
		histPath = flag.String("history", "", "file every scenario's tuned winner (guidelines: every adopted mock) in this history file, the one tune -history reads")
		specOn   = flag.Bool("speculate", false, "run the suite's selectors as speculative+<selector>: every candidate measured on its own copy of the world")
		shardStr = flag.String("shards", "", "run every scenario on the sharded PDES engine: auto (GOMAXPROCS, clamped to nodes) or a shard count, results identical for every count; empty = sequential engine, whose results differ")
	)
	flag.Parse()
	if err := runner.CheckWorkers("jobs", *jobs); err != nil {
		fail(err)
	}
	suites, err := bench.Suites(*suite, *fast)
	if err != nil {
		fail(err)
	}
	// The file holds the last suite's summary; whether there will be one is
	// known from the suite, before hours of simulation.
	if *out != "" && !suites[len(suites)-1].Summarizes() {
		fail(fmt.Errorf("-out: %s has no machine-readable summary (verification, fft, scale, fig2 and guidelines do)", *suite))
	}
	if _, err := profiles.ByName(*chaosStr); err != nil {
		fail(err)
	}
	chaosName := *chaosStr
	if chaosName == "off" {
		chaosName = "" // canonical clean spelling: specs fingerprint identically to pre-chaos runs
	}

	// A flag is refused, not ignored, when no suite of the run acts on it.
	// Speculation acts on the suite's selectors, the history file on their
	// winners and on the guideline audit's adopted mocks, -trace on the runs
	// of a per-implementation or per-flavor matrix.
	var selects, traces, audits bool
	for _, s := range suites {
		selects = selects || len(s.Selectors) > 0
		traces = traces || s.Traces()
		audits = audits || s.Guidelines != nil
	}
	if audits {
		// A guideline leaf is a virtual measurement, unobserved, on the
		// sequential engine (DESIGN.md §5).
		for _, f := range []struct {
			name string
			set  bool
		}{{"observe", *observe}, {"data", *data}, {"shards", *shardStr != ""}, {"speculate", *specOn}} {
			if f.set {
				fail(fmt.Errorf("-%s: guidelines measures unobserved virtual leaves on the sequential engine", f.name))
			}
		}
		if !*fast && chaosName != "" {
			fail(fmt.Errorf("-chaos: the full guidelines grid runs its own clean and congested machines (-fast takes a profile)"))
		}
	}
	const noSelector = "-%s: %s runs no selection logic (%s do)"
	if *specOn && !selects {
		fail(fmt.Errorf(noSelector, "speculate", *suite, "verification, scale and fig2"))
	}
	if *histPath != "" && !selects && !audits {
		fail(fmt.Errorf(noSelector, "history", *suite, "verification, scale, fig2 and guidelines"))
	}
	if *traceDir != "" && !traces {
		fail(fmt.Errorf("-trace: %s exports no trace (fig3..fig7 and fig9..fig12 do)", *suite))
	}
	if *specOn {
		// Speculation is a selector name: each selector a suite runs becomes
		// speculative+<selector>.
		for i := range suites {
			for j, sel := range suites[i].Selectors {
				suites[i].Selectors[j] = "speculative+" + sel
			}
		}
	}
	// Opened before anything runs, so a corrupt or old-format file is refused
	// up front, not after the sweep.
	hist, err := kb.Open(kb.StoreOptions{SnapshotPath: *histPath})
	if err != nil {
		fail(err)
	}

	shards, pdes, err := bench.ParseShards(*shardStr)
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

	var last *bench.Outcome
	var learned []kb.Record
	for i := range suites {
		s := &suites[i]
		// The run-wide settings, laid over every scenario of the grid.
		for j := range s.Micro {
			m := &s.Micro[j]
			m.Observe, m.Data = m.Observe || *observe, m.Data || *data
			m.PDES, m.Shards = pdes, shards
			if chaosName != "" {
				m.Chaos, m.ChaosSeed = chaosName, *chaosSd
			}
		}
		for j := range s.FFT {
			f := &s.FFT[j]
			f.Observe, f.Data = f.Observe || *observe, f.Data || *data
			f.PDES, f.Shards = pdes, shards
			if chaosName != "" {
				f.Chaos, f.ChaosSeed = chaosName, *chaosSd
			}
		}
		// Every guideline scenario takes -chaos-seed; -chaos reaches only the
		// fast grid, the full one refusing it above.
		for j := range s.Guidelines {
			g := &s.Guidelines[j]
			g.ChaosSeed = *chaosSd
			if chaosName != "" {
				g.Chaos = chaosName
			}
		}
		o, err := s.Run(opt, trace)
		if err != nil {
			fail(err)
		}
		for _, t := range o.Tables {
			if *csv {
				t.RenderCSV(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
			fmt.Println()
		}
		last = o
		learned = append(learned, winners(o)...)
	}

	if *out != "" {
		if err := last.WriteFile(*out); err != nil {
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
// them up: keyed by the same (HistoryKey, EnvFingerprint) pair. Each
// verification run measured every fixed implementation, so the per-scenario
// best is exactly what a tuner would commit. A guideline audit contributes
// every mock its tuning round adopted, with the evaluations that cost — tune
// replays a recorded catalogue mock of its op. The other suites decide
// nothing a command looks up (a 3D-FFT kernel's winner has no tune
// scenario), so they have nothing to file.
func winners(o *bench.Outcome) []kb.Record {
	var recs []kb.Record
	switch {
	case o.Verification != nil:
		for _, v := range o.Verification.Runs {
			recs = append(recs, kb.Record{
				Key:    core.HistoryKey(v.Spec.Op, v.Spec.Platform.Name, v.Spec.Procs, v.Spec.MsgSize),
				Env:    core.EnvFingerprint(v.Spec.Platform.Net.Topology.String(), v.Spec.Chaos, v.Spec.ChaosSeed),
				Winner: v.Fixed[v.Best].Impl,
				Score:  v.Fixed[v.Best].Total,
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
