// Command sweep reproduces the paper's aggregate statistics:
//
//   - suite "verification" (§IV-A): the correct-decision rate of the ADCL
//     selection logics over a grid of micro-benchmark scenarios (paper: 90%
//     brute force, 92% attribute heuristic over 324 runs).
//   - suite "fft" (§IV-B): the fraction of 3D-FFT kernel tests where ADCL
//     beats LibNBC, and the maximum improvement (paper: 74% of 393 tests,
//     up to 40%).
//
// Scenarios execute on the experiment runner (internal/runner): -jobs
// parallelizes across a worker pool, -cache persists every completed
// scenario in a content-addressed store so re-runs are nearly free and an
// interrupted sweep resumes where it stopped (-resume). Aggregated output
// is byte-identical for every -jobs value and for cached vs fresh runs.
// Alongside the table, a machine-readable summary is written to -out.
//
// Example:
//
//	sweep -suite verification -fast -jobs 8 -cache
//	sweep -suite fft
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"nbctune/internal/bench"
	"nbctune/internal/chaos/profiles"
	"nbctune/internal/core"
	"nbctune/internal/kb"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

func main() {
	var (
		suite    = flag.String("suite", "verification", "sweep suite: verification, fft, or scale")
		fast     = flag.Bool("fast", false, "trimmed scenario grid (minutes instead of hours)")
		quiet    = flag.Bool("quiet", false, "suppress per-scenario progress lines")
		jobs     = flag.Int("jobs", 0, "parallel scenario workers (0 = GOMAXPROCS, 1 = sequential)")
		cacheOn  = flag.Bool("cache", false, "serve and persist scenario results via the content-addressed store")
		cacheDir = flag.String("cachedir", "results/cache", "result store directory")
		resume   = flag.Bool("resume", false, "resume an interrupted sweep from the store (implies -cache)")
		out      = flag.String("out", "", "machine-readable summary path (default: the suite's committed results/ file; empty disables)")
		observe  = flag.Bool("observe", false, "attach obs recorders so summary rows carry overlap ratios (timing-neutral)")
		data     = flag.Bool("data", false, "real payloads with per-iteration data verification (virtual times unchanged; slower)")
		chaosStr = flag.String("chaos", "off", "fault/noise injection profile: off, "+strings.Join(profiles.Names(), ", "))
		chaosSd  = flag.Int64("chaos-seed", 1, "seed for the chaos injector's deterministic streams")
		kbAddr   = flag.String("kb", "", "share every scenario's tuned winner with a tuned knowledge-base daemon at this address")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		specOn   = flag.Bool("speculate", false, "evaluate ADCL selector runs via speculative world forks (decisions worker-count independent)")
		specWrk  = flag.Int("spec-workers", 0, "fork worker pool per speculative scenario (0 = GOMAXPROCS)")
		shardStr = flag.String("shards", "", "run scenarios on the sharded PDES engine: auto (GOMAXPROCS, clamped to nodes) or a shard count; empty = sequential engine")
	)
	flag.Parse()
	outSet := false
	flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
	if !outSet {
		*out = defaultOut(*suite)
	}

	shards, pdes, err := parseShards(*shardStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	if _, err := profiles.ByName(*chaosStr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	chaosName := *chaosStr
	if chaosName == "off" {
		chaosName = "" // canonical clean spelling: specs fingerprint identically to pre-chaos runs
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}()
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	opt := bench.Parallel(*jobs, progress)
	opt.Speculate = *specOn
	opt.SpecWorkers = *specWrk
	if *specOn && (*observe || *data) {
		fmt.Fprintln(os.Stderr, "sweep: -speculate is incompatible with -observe and -data (state cannot cross a snapshot)")
		os.Exit(1)
	}
	if pdes {
		if *specOn {
			fmt.Fprintln(os.Stderr, "sweep: -shards is incompatible with -speculate (a sharded world cannot be snapshotted)")
			os.Exit(1)
		}
		if chaosName != "" {
			fmt.Fprintln(os.Stderr, "sweep: -shards is incompatible with -chaos (injection streams are consumed in global order)")
			os.Exit(1)
		}
		if *suite == "fft" {
			fmt.Fprintln(os.Stderr, "sweep: -shards applies to the micro-benchmark suites (verification, scale), not fft")
			os.Exit(1)
		}
	}
	if *cacheOn || *resume {
		c, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opt.Cache = c
	}

	var summary *bench.SweepSummary
	var kbRecords []kb.Record
	switch *suite {
	case "verification":
		specs := bench.VerificationScenarios(*fast)
		for i := range specs {
			specs[i].Observe = specs[i].Observe || *observe
			specs[i].Data = specs[i].Data || *data
			if chaosName != "" {
				specs[i].Chaos = chaosName
				specs[i].ChaosSeed = *chaosSd
			}
			if pdes {
				specs[i].PDES = true
				specs[i].Shards = shards
			}
		}
		selectors := []string{"brute-force", "attr-heuristic", "factorial-2k"}
		st, err := bench.VerificationSweepOpts(specs, selectors, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t := bench.NewTable(fmt.Sprintf("Verification sweep: %d scenarios (paper §IV-A: 324 runs, 90%% / 92%%)", st.Total),
			"selector", "correct", "total", "rate")
		for _, sel := range st.Selectors {
			t.AddRow(sel, st.Correct[sel], st.Total, fmt.Sprintf("%.1f%%", st.Rate(sel)*100))
		}
		t.Render(os.Stdout)
		summary = st.Summary()
		if *kbAddr != "" {
			// Each verification run measured every fixed implementation, so
			// the per-scenario best is exactly what a tuner would commit:
			// share it keyed by the same (HistoryKey, EnvFingerprint) pair
			// tune -kb looks up.
			for _, v := range st.Runs {
				kbRecords = append(kbRecords, kb.Record{
					Key:    core.HistoryKey(v.Spec.Op, v.Spec.Platform.Name, v.Spec.Procs, v.Spec.MsgSize),
					Env:    envFingerprint(v.Spec.Platform, v.Spec.Chaos, v.Spec.ChaosSeed),
					Winner: v.Fixed[v.Best].Impl,
					Score:  v.Fixed[v.Best].Total,
				})
			}
		}

	case "scale":
		// E15: the scalable function sets on the bgp-16k torus at 64 ranks vs
		// the 1K–4K regime, where the tuned winner flips (EXPERIMENTS.md E15).
		specs := bench.ScaleScenarios(*fast)
		for i := range specs {
			specs[i].Observe = specs[i].Observe || *observe
			specs[i].Data = specs[i].Data || *data
			if chaosName != "" {
				specs[i].Chaos = chaosName
				specs[i].ChaosSeed = *chaosSd
			}
			if pdes {
				specs[i].PDES = true
				specs[i].Shards = shards
			}
		}
		selectors := []string{"brute-force", "attr-heuristic"}
		st, err := bench.VerificationSweepOpts(specs, selectors, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t := bench.NewTable(fmt.Sprintf("Scale sweep: %d scenarios on %s (winner per scenario)", st.Total, "bgp-16k"),
			"scenario", "best fixed", "brute-force correct")
		for _, v := range st.Runs {
			t.AddRow(v.Spec.String(), v.Fixed[v.Best].Impl, v.Correct(0))
		}
		t.Render(os.Stdout)
		t2 := bench.NewTable("Correct-decision rates", "selector", "correct", "total", "rate")
		for _, sel := range st.Selectors {
			t2.AddRow(sel, st.Correct[sel], st.Total, fmt.Sprintf("%.1f%%", st.Rate(sel)*100))
		}
		t2.Render(os.Stdout)
		summary = st.Summary()
		summary.Suite = "scale"

	case "fft":
		specs := bench.FFTScenarios(*fast)
		for i := range specs {
			specs[i].Observe = specs[i].Observe || *observe
			specs[i].Data = specs[i].Data || *data
			if chaosName != "" {
				specs[i].Chaos = chaosName
				specs[i].ChaosSeed = *chaosSd
			}
		}
		st, err := bench.FFTSweepOpts(specs, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t := bench.NewTable(fmt.Sprintf("FFT sweep: %d scenarios (paper §IV-B: ADCL faster in 74%% of 393 tests, up to 40%%)", st.Total),
			"metric", "value")
		t.AddRow("adcl faster than libnbc", fmt.Sprintf("%d/%d (%.1f%%)", st.ADCLFaster, st.Total, st.FasterRate()*100))
		t.AddRow("on par (within 2%)", st.OnPar)
		t.AddRow("max improvement vs libnbc", fmt.Sprintf("%.1f%%", st.MaxImprovement*100))
		t.Render(os.Stdout)
		summary = st.Summary()
		if *kbAddr != "" {
			for _, pair := range st.Rows {
				adclR := pair[1]
				if adclR.Winner == "" {
					continue
				}
				// FFT scenarios are keyed by kernel variant and grid size: N
				// (with np) determines every transpose's message size, so it
				// plays HistoryKey's msgsize role.
				kbRecords = append(kbRecords, kb.Record{
					Key: core.HistoryKey(fmt.Sprintf("fft3d-%s-%s", adclR.Spec.Pattern, adclR.Spec.Flavor),
						adclR.Spec.Platform.Name, adclR.Spec.Procs, adclR.Spec.N),
					Env:    envFingerprint(adclR.Spec.Platform, adclR.Spec.Chaos, adclR.Spec.ChaosSeed),
					Winner: adclR.Winner,
					Score:  adclR.PostLearnPerIter,
					Evals:  adclR.Evals,
				})
			}
		}

	default:
		fmt.Fprintf(os.Stderr, "unknown suite %q (verification, fft, scale)\n", *suite)
		os.Exit(1)
	}

	if *out != "" {
		if err := bench.WriteSummaryFile(*out, summary); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "summary written to %s\n", *out)
	}

	if *kbAddr != "" {
		c := kb.NewClient(*kbAddr, kb.ClientOptions{})
		c.RecordBatch(kbRecords)
		if err := c.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: kb daemon %s unreachable, winners not shared: %v\n", *kbAddr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%d tuned winners shared with kb %s\n", len(kbRecords), *kbAddr)
	}
}

// defaultOut is where a suite's summary goes when -out is not given: each
// suite has its own committed file under results/, so running one suite never
// overwrites another's pinned artifact. Unknown suites get no file (main
// rejects them).
func defaultOut(suite string) string {
	switch suite {
	case "verification":
		return "results/sweep_summary.json"
	case "fft":
		return "results/sweep_summary_fft.json"
	case "scale":
		return "results/scale_summary.json"
	}
	return ""
}

// parseShards interprets the -shards flag: "" keeps the sequential engine,
// "auto" selects the sharded (PDES) engine with a GOMAXPROCS-derived worker
// count (platform assembly clamps it to the used node count), and a positive
// integer pins the shard count. Aggregate output is byte-identical for every
// value — the shard count, like -jobs, changes only wall-clock.
func parseShards(v string) (shards int, pdes bool, err error) {
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

// envFingerprint mirrors cmd/tune's history gating: flat topology maps to
// the clean empty tag so sweep-shared winners land under the same
// fingerprints tune -kb looks up.
func envFingerprint(pl platform.Platform, chaosName string, chaosSeed int64) string {
	topo := pl.Net.Topology.String()
	if topo == "flat" {
		topo = ""
	}
	return core.EnvFingerprint(topo, chaosName, chaosSeed)
}
