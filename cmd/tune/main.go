// Command tune runs one ADCL auto-tuning session on a simulated platform
// and prints the full tuning report: every implementation's robust score,
// sample counts, the decision, and the learning cost. With -history it
// persists the winner and reuses it on the next invocation (ADCL's historic
// learning). With -verify it then applies the paper's verification-run
// methodology (§IV-A, Fig 2) to the same scenario: every fixed implementation
// is measured beside the selector and the winner is judged correct when it is
// within 5% of the best fixed run.
//
// Examples:
//
//	tune -op ialltoall -platform crill -np 32 -msg 131072
//	tune -op ibcast -selector attr-heuristic -np 16
//	tune -op ialltoall-prim -np 16         # algorithm x primitive (put/get) set
//	tune -op ialltoall -history /tmp/adcl.json   # run twice to see the hit
//	tune -op ialltoall -kb 127.0.0.1:7070        # share winners via a tuned daemon
//	tune -op ialltoall -metrics audit.json       # selection audit + overlap
//	tune -op ialltoall -np 32 -progress 5 -verify   # was the winner correct?
//
// With -kb, winners learned by any process sharing the daemon are reused
// (the learning phase is skipped exactly as with a warm -history file);
// when the daemon is down, tuning silently falls back to the -history
// file (or an in-memory history) and keeps working.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"nbctune/internal/bench"
	"nbctune/internal/chaos/profiles"
	"nbctune/internal/core"
	"nbctune/internal/kb"
	"nbctune/internal/mpi"
	"nbctune/internal/obs"
	"nbctune/internal/platform"
)

func main() {
	var (
		platName = flag.String("platform", "crill", "platform preset: crill, whale, whale-tcp, bgp, bgp-16k")
		np       = flag.Int("np", 16, "number of ranks")
		op       = flag.String("op", "ialltoall", "operation: ialltoall, ialltoall-ext, ialltoall-prim, ibcast, ibcast-scalable, iallgather, iallgather-scalable, iallreduce, ibarrier, neighborhood")
		msg      = flag.Int("msg", 128*1024, "message size in bytes")
		compute  = flag.Float64("compute", 0.02, "compute seconds per iteration")
		progress = flag.Int("progress", 5, "progress calls per iteration")
		iters    = flag.Int("iters", 0, "loop iterations (0 = enough for learning + 10)")
		selName  = flag.String("selector", "brute-force", "selection logic: brute-force, attr-heuristic, factorial-2k, adaptive[+inner], brute-force-mean")
		evals    = flag.Int("evals", 3, "measurements per implementation")
		seed     = flag.Int64("seed", 1, "simulation seed")
		histPath = flag.String("history", "", "history file for persistent learning (optional)")
		kbAddr   = flag.String("kb", "", "tuned knowledge-base daemon address (host:port); shares winners across runs and falls back to -history when unreachable")
		tracOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run (open in Perfetto)")
		metrOut  = flag.String("metrics", "", "write overlap metrics + the rank-0 selection audit as JSON")
		chaosStr = flag.String("chaos", "off", "fault/noise injection profile: off or a profile name")
		chaosSd  = flag.Int64("chaos-seed", 1, "seed for the chaos injector's deterministic streams")
		specOn   = flag.Bool("speculate", false, "evaluate candidates on speculative world forks instead of in-line learning (ialltoall/ibcast)")
		specWrk  = flag.Int("spec-workers", 0, "fork worker pool for -speculate (0 = GOMAXPROCS); decisions are identical for every value")
		shardStr = flag.String("shards", "", "run on the sharded PDES engine: auto (GOMAXPROCS, clamped to nodes) or a shard count, results identical for every count; empty = sequential engine, whose results differ")
		verify   = flag.Bool("verify", false, "also measure every fixed implementation on the micro-benchmark loop and report whether the selector's winner is correct (ialltoall, ibcast, ibcast-scalable, iallgather-scalable, ibarrier)")
	)
	flag.Parse()

	plat, err := platform.ByName(*platName)
	if err != nil {
		fail(err)
	}
	prof, err := profiles.ByName(*chaosStr)
	if err != nil {
		fail(err)
	}
	chaosName := ""
	if prof != nil {
		chaosName = prof.Name
	}
	shards, pdes, err := bench.ParseShards(*shardStr)
	if err != nil {
		fail(err)
	}
	if pdes {
		// The gated feature set (DESIGN.md §13): chaos consumes injection
		// streams in global call order, speculation needs a snapshot, the
		// primitive set creates one-sided windows, and history/kb lookups run
		// once per rank — concurrently under PDES.
		switch {
		case chaosName != "":
			fail(fmt.Errorf("-shards is incompatible with -chaos"))
		case *specOn:
			fail(fmt.Errorf("-shards is incompatible with -speculate (a sharded world cannot be snapshotted)"))
		case *op == "ialltoall-prim":
			fail(fmt.Errorf("-shards does not support op %q (one-sided windows are gated on a sharded world)", *op))
		case *histPath != "" || *kbAddr != "":
			fail(fmt.Errorf("-shards is incompatible with -history and -kb"))
		}
	}
	// The uniform start/observe/run triple over the sequential engine or the
	// sharded (PDES) world; the tuning loop below runs unchanged on either.
	var startW func(func(*mpi.Comm))
	var observeW func(*obs.Recorder)
	var runW func()
	if pdes {
		sw, err := plat.NewWorldPDES(*np, *seed, platform.Cyclic, shards)
		if err != nil {
			fail(err)
		}
		startW, observeW, runW = sw.Start, sw.Observe, sw.Run
	} else {
		eng, world, err := plat.NewWorldChaos(*np, *seed, platform.Cyclic, prof, *chaosSd)
		if err != nil {
			fail(err)
		}
		startW, observeW, runW = world.Start, world.Observe, func() { eng.Run() }
	}
	// The environment fingerprint gates history hits: a winner tuned on a
	// clean flat fabric must not be replayed under a chaos profile (or vice
	// versa). Flat topology maps to the empty tag so clean runs keep
	// matching history files written before fingerprints existed.
	topo := plat.Net.Topology.String()
	if topo == "flat" {
		topo = ""
	}
	env := core.EnvFingerprint(topo, chaosName, *chaosSd)
	var hist *core.History
	histKey := core.HistoryKey(*op, plat.Name, *np, *msg)
	if *histPath != "" {
		hist, err = core.LoadHistory(*histPath)
		if err != nil {
			fail(err)
		}
	}
	// The history source the tuning loop consults: the local file, or —
	// with -kb — the shared daemon with that same local history as
	// write-through fallback, so a daemon outage degrades to exactly the
	// plain -history behaviour.
	var src core.HistorySource
	var kbh *core.KBHistory
	switch {
	case *kbAddr != "":
		kbh = core.NewKBHistory(kb.NewClient(*kbAddr, kb.ClientOptions{}), hist, *histPath)
		src = kbh
	case hist != nil:
		src = hist
	}

	speculate := *specOn
	if speculate {
		if *op != "ialltoall" && *op != "ibcast" {
			fail(fmt.Errorf("-speculate supports ops ialltoall and ibcast, not %q", *op))
		}
		if *tracOut != "" {
			fail(fmt.Errorf("-speculate does not support -trace: recorder spans cannot cross a snapshot"))
		}
		if src != nil {
			if _, ok := src.LookupEnv(histKey, env); ok {
				// Warm history: there is no learning phase to speculate on, so
				// fall through to the normal fixed-winner path.
				speculate = false
			}
		}
	}

	var rec *obs.Recorder
	if (*tracOut != "" || *metrOut != "") && !speculate {
		rec = obs.NewRecorder(*np)
		observeW(rec)
	}

	var report string
	var winnerName string
	var evalsUsed int
	var audit *obs.Audit
	var specRes *bench.SpecResult
	// The scenario as a micro-benchmark spec, for the bench-harness paths
	// (-speculate, -verify).
	mspec := bench.MicroSpec{
		Platform: plat, Procs: *np, MsgSize: *msg, Op: *op,
		ComputePerIter: *compute, Iterations: *iters, ProgressCalls: *progress,
		Seed: *seed, EvalsPerFn: *evals, Chaos: chaosName, ChaosSeed: *chaosSd,
		PDES: pdes, Shards: shards,
	}
	if chaosName == "" {
		mspec.ChaosSeed = 0
	}
	if speculate {
		n := *iters
		if n == 0 {
			n = 10 // all iterations run post-decision
		}
		mspec.Iterations = n
		sr, err := bench.RunSpeculative(mspec, *selName, *specWrk)
		if err != nil {
			fail(err)
		}
		specRes = sr
		winnerName = sr.Result.Winner
		evalsUsed = sr.Result.Evals
		audit = sr.Audit
		report = fmt.Sprintf(
			"speculative selection: %d candidate forks x %d measurement rounds\n"+
				"  sequential selection latency   %.6g s (virtual, candidates back to back)\n"+
				"  speculative selection latency  %.6g s (virtual, critical path)\n"+
				"  selection speedup              %.2fx\n\n"+
				"winner: %s (%d evals consumed, %.6g s/iter post-decision over %d iterations)\n",
			len(sr.CandidateTime), sr.EvalRounds,
			sr.SeqLatency, sr.SpecLatency, sr.Speedup(),
			winnerName, evalsUsed, sr.Result.PostLearnPerIter, n)
	} else {
		startW(func(c *mpi.Comm) {
			fs, err := buildSet(c, *op, *msg)
			if err != nil {
				fail(err)
			}
			sel, err := core.SelectorByName(*selName, fs, *evals)
			if err != nil {
				fail(err)
			}
			hit := false
			if src != nil {
				sel, hit = core.SelectorWithSourceEnv(src, histKey, env, fs, sel)
			}
			if c.Rank() == 0 && rec != nil {
				audit = core.AttachAudit(sel, fs)
			}
			if c.Rank() == 0 && hit {
				fmt.Printf("history hit for %q: learning phase skipped\n\n", histKey)
			}
			req := core.MustRequest(fs, sel, c.Now)
			timer := core.MustTimer(c.Now, req)

			n := *iters
			if n == 0 {
				n = *evals*len(fs.Fns) + 10
			}
			for it := 0; it < n; it++ {
				timer.Start()
				req.Init()
				for k := 0; k < *progress; k++ {
					c.Compute(*compute / float64(*progress))
					req.Progress()
				}
				req.Wait()
				core.StopMaybeSynced(c, timer, req)
			}
			if c.Rank() == 0 {
				mspec.Iterations = n // -verify measures over the same loop length
				report = core.TuningReport(req)
				if w := req.Winner(); w != nil {
					winnerName = w.Name
					evalsUsed = req.Selector().Evals()
				}
			}
		})
		runW()
	}

	fmt.Printf("platform %s, %d ranks, %d-byte messages, %g s compute/iter, %d progress calls\n\n",
		plat.Name, *np, *msg, *compute, *progress)
	fmt.Print(report)

	if *verify {
		opt := bench.Parallel(0, nil)
		opt.Speculate, opt.SpecWorkers = speculate, *specWrk
		v, err := bench.RunVerificationOpts(mspec, opt, *selName)
		if err != nil {
			fail(err)
		}
		fmt.Println()
		verificationTable(v).Render(os.Stdout)
	}

	if src != nil && winnerName != "" {
		src.Record(histKey, core.HistoryEntry{Winner: winnerName, Evals: evalsUsed, Env: env})
		switch {
		case kbh != nil:
			if err := kbh.Flush(); err != nil {
				fail(err)
			}
			where := "kb " + *kbAddr
			if kbh.FellBack() {
				where = "local fallback"
				if *histPath != "" {
					where += " " + *histPath
				}
				fmt.Fprintf(os.Stderr, "tune: kb daemon %s unreachable, winner kept locally\n", *kbAddr)
			} else if *histPath != "" {
				where += " (and " + *histPath + ")"
			}
			fmt.Printf("\nwinner stored in %s under key %q\n", where, histKey)
		default:
			if err := hist.Save(*histPath); err != nil {
				fail(err)
			}
			fmt.Printf("\nwinner stored in %s under key %q\n", *histPath, histKey)
		}
	}

	if *tracOut != "" {
		f, err := os.Create(*tracOut)
		if err != nil {
			fail(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("\ntrace written to %s\n", *tracOut)
	}
	if *metrOut != "" {
		out := tuneMetrics{
			Platform: plat.Name, Op: *op, Procs: *np, MsgSize: *msg,
			Compute: *compute, ProgressCalls: *progress, Selector: *selName,
			Seed: *seed, Winner: winnerName, Evals: evalsUsed,
			Chaos: chaosName, ChaosSeed: *chaosSd,
			Audit: audit,
		}
		if rec != nil {
			out.Metrics = rec.Metrics()
		}
		if specRes != nil {
			// Everything recorded here is virtual-time and fork-order
			// deterministic: two runs differing only in -spec-workers write
			// byte-identical artifacts (make e2e pins this).
			out.Selector = "speculative+" + *selName
			out.SpecLatency = specRes.SpecLatency
			out.SeqLatency = specRes.SeqLatency
			out.CandidateTime = specRes.CandidateTime
			out.EvalRounds = specRes.EvalRounds
		}
		if chaosName == "" {
			out.ChaosSeed = 0
		}
		f, err := os.Create(*metrOut)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("\nmetrics + selection audit written to %s\n", *metrOut)
	}
}

// tuneMetrics is the -metrics artifact: enough to reproduce the selection
// decision by hand (see EXPERIMENTS.md, E7 walkthrough).
type tuneMetrics struct {
	Platform      string       `json:"platform"`
	Op            string       `json:"op"`
	Procs         int          `json:"np"`
	MsgSize       int          `json:"msg"`
	Compute       float64      `json:"compute"`
	ProgressCalls int          `json:"progress_calls"`
	Selector      string       `json:"selector"`
	Seed          int64        `json:"seed"`
	Winner        string       `json:"winner"`
	Evals         int          `json:"evals"`
	Chaos         string       `json:"chaos,omitempty"`
	ChaosSeed     int64        `json:"chaos_seed,omitempty"`
	Metrics       *obs.Metrics `json:"metrics"`
	Audit         *obs.Audit   `json:"audit,omitempty"`

	// Speculative-selection fields (-speculate): virtual selection latencies
	// and per-candidate fork costs. The fork worker count is deliberately
	// absent — the artifact is byte-identical for every -spec-workers value.
	SpecLatency   float64   `json:"spec_latency,omitempty"`
	SeqLatency    float64   `json:"seq_latency,omitempty"`
	CandidateTime []float64 `json:"candidate_time,omitempty"`
	EvalRounds    int       `json:"eval_rounds,omitempty"`
}

// verificationTable renders a verification run: every fixed implementation,
// then the ADCL run with its verdict.
func verificationTable(v *bench.Verification) *bench.Table {
	t := bench.NewTable(fmt.Sprintf("Verification run: %s", v.Spec),
		"implementation", "total_s", "periter_ms", "vs_best", "note")
	best := v.Fixed[v.Best].Total
	for i, r := range v.Fixed {
		note := ""
		if i == v.Best {
			note = "best fixed"
		}
		t.AddRow(r.Impl, bench.Sec(r.Total), bench.Ms(r.PerIter),
			fmt.Sprintf("%+.1f%%", (r.Total-best)/best*100), note)
	}
	for i, r := range v.ADCL {
		note := fmt.Sprintf("winner=%s evals=%d correct=%v", r.Winner, r.Evals, v.Correct(i))
		t.AddRow(r.Impl, bench.Sec(r.Total), bench.Ms(r.PerIter),
			fmt.Sprintf("%+.1f%%", (r.Total-best)/best*100), note)
	}
	return t
}

func buildSet(c *mpi.Comm, op string, msg int) (*core.FunctionSet, error) {
	switch op {
	case "ialltoall":
		n := c.Size()
		return core.IalltoallSet(c, mpi.Virtual(n*msg), mpi.Virtual(n*msg), false), nil
	case "ialltoall-ext":
		n := c.Size()
		return core.IalltoallSet(c, mpi.Virtual(n*msg), mpi.Virtual(n*msg), true), nil
	case "ialltoall-prim":
		n := c.Size()
		return core.IalltoallPrimitivesSet(c, mpi.Virtual(n*msg), mpi.Virtual(n*msg)), nil
	case "ibcast":
		return core.IbcastSet(c, 0, mpi.Virtual(msg)), nil
	case "ibcast-scalable":
		return core.IbcastScalableSet(c, 0, mpi.Virtual(msg)), nil
	case "iallgather":
		n := c.Size()
		return core.IallgatherSet(c, mpi.Virtual(msg), mpi.Virtual(n*msg)), nil
	case "iallgather-scalable":
		n := c.Size()
		return core.IallgatherScalableSet(c, mpi.Virtual(msg), mpi.Virtual(n*msg)), nil
	case "ibarrier":
		return core.IbarrierSet(c), nil
	case "iallreduce":
		return core.IallreduceSet(c, mpi.Virtual(msg), mpi.Virtual(msg), nil), nil
	case "neighborhood":
		// Square periodic process grid; msg bytes per field row.
		g := 1
		for (g+1)*(g+1) <= c.Size() {
			g++
		}
		if g*g != c.Size() {
			return nil, fmt.Errorf("neighborhood needs a square rank count, have %d", c.Size())
		}
		cols := msg / 8
		if cols < 4 {
			cols = 4
		}
		halo, err := core.Grid2D(c, g, g, cols, cols, 8, mpi.Buf{})
		if err != nil {
			return nil, err
		}
		return core.NeighborhoodSet(c, halo)
	default:
		return nil, fmt.Errorf("unknown operation %q", op)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tune:", err)
	os.Exit(1)
}
