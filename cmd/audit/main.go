// Command audit runs the performance-guideline verification engine
// (internal/guideline) over the tuned collectives: it sweeps a scenario
// matrix, judges every shipped guideline with robust effect sizes, writes
// the machine-readable report, and — via the violations→function-set
// feedback loop — promotes the mock implementation behind every violated
// dominance guideline into the operation's function set for a fresh,
// audited tuning round.
//
// Scenarios execute on the experiment runner: -jobs parallelizes leaf
// measurements, -cache DIR persists them in the content-addressed store so
// re-runs of the same build and interrupted matrices resume for free. The report is
// byte-identical for every -jobs value and for cached versus fresh runs.
//
// Examples:
//
//	audit -matrix smoke -jobs 8 -cache ~/.cache/nbctune   # the CI gate's matrix
//	audit -matrix full -chaos congested
//	audit -check results/guideline_report.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nbctune/internal/chaos/profiles"
	"nbctune/internal/core"
	"nbctune/internal/guideline"
	"nbctune/internal/kb"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

func main() {
	var (
		matrix   = flag.String("matrix", "smoke", "scenario matrix: smoke (CI-sized) or full (overnight)")
		chaosStr = flag.String("chaos", "off", "fault/noise injection profile for the smoke matrix: off, "+strings.Join(profiles.Names(), ", "))
		chaosSd  = flag.Int64("chaos-seed", 1, "seed for the chaos injector's deterministic streams")
		seed     = flag.Int64("seed", 42, "simulation seed for every scenario")
		out      = flag.String("out", "results/guideline_report.json", "machine-readable report path (empty disables)")
		check    = flag.String("check", "", "validate an existing report (schema version + verdicts re-derived from its samples) and exit; no simulation")
		jobs     = flag.Int("jobs", 0, "parallel measurement workers (0 = GOMAXPROCS, 1 = sequential)")
		cacheDir = flag.String("cache", "", "result store directory: serve and persist leaf measurements there, for this build of audit only; an interrupted matrix resumes from it (empty = no store)")
		histPath = flag.String("history", "", "file every adopted registration's winner in this history file, the one tune -history reads")
		quiet    = flag.Bool("quiet", false, "suppress per-measurement progress lines")
	)
	flag.Parse()
	if err := runner.CheckWorkers("jobs", *jobs); err != nil {
		fatal(err)
	}

	if *check != "" {
		rep, err := guideline.LoadFile(*check)
		if err != nil {
			fatal(err)
		}
		if err := rep.Check(); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: schema v%d, %d findings, %d violations, %d registrations — verdicts re-derived from samples, consistent\n",
			*check, rep.SchemaVersion, len(rep.Findings), rep.Violations, len(rep.Registrations))
		return
	}

	if _, err := profiles.ByName(*chaosStr); err != nil {
		fatal(err)
	}
	chaosName := *chaosStr
	if chaosName == "off" {
		chaosName = "" // canonical clean spelling: leaves fingerprint identically to pre-chaos runs
	}

	// Opened before anything runs, so a corrupt or old-format file is refused
	// up front, not after the matrix.
	hist, err := kb.Open(kb.StoreOptions{SnapshotPath: *histPath})
	if err != nil {
		fatal(err)
	}

	var scenarios []guideline.Scenario
	switch *matrix {
	case "smoke":
		scenarios = guideline.SmokeScenarios(*seed, chaosName, *chaosSd)
	case "full":
		scenarios = guideline.FullScenarios(*seed, *chaosSd)
	default:
		fatal(fmt.Errorf("unknown matrix %q (smoke, full)", *matrix))
	}

	cfg := guideline.Config{
		Scenarios: scenarios,
		Adopt:     true,
		Workers:   *jobs,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *cacheDir != "" {
		c, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cfg.Cache = c
	}

	rep, err := guideline.Run(cfg)
	if err != nil {
		fatal(err)
	}
	rep.Summary(os.Stdout)

	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	}
	if *histPath != "" {
		if err := fileAdopted(hist, *histPath, rep, os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// fileAdopted puts every adopted registration's winner into the history
// store, keyed by the same (HistoryKey, EnvFingerprint) pair tune -history
// looks up — a mock adopted here becomes a warm-start candidate for later
// tuning sessions on the same scenario (tune replays a recorded catalogue
// mock of its op) — then writes its file and reports on diag how many
// records the file took. A failed write is the command's failure.
func fileAdopted(hist *kb.Store, path string, rep *guideline.Report, diag io.Writer) error {
	var records []kb.Record
	for _, reg := range rep.Registrations {
		if !reg.Adopted {
			continue
		}
		pl, err := platform.ByName(reg.Scenario.Platform)
		if err != nil {
			continue
		}
		records = append(records, kb.Record{
			Key:    core.HistoryKey(reg.Op, reg.Scenario.Platform, reg.Scenario.Procs, reg.Scenario.Size),
			Env:    core.EnvFingerprint(pl.Net.Topology.String(), reg.Scenario.Chaos, reg.Scenario.ChaosSeed),
			Winner: reg.Chosen,
			Evals:  reg.Evals,
		})
	}
	n := hist.PutBatch(records)
	if err := hist.Flush(false); err != nil {
		return fmt.Errorf("-history: adopted winners not filed: %w", err)
	}
	fmt.Fprintf(diag, "%d adopted winners filed in %s\n", n, path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
