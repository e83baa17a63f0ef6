// Command tune runs one ADCL auto-tuning session on a simulated platform
// and prints the full tuning report: every implementation's robust score,
// sample counts, the decision, and the learning cost. With -history it
// persists the winner in a knowledge-base snapshot (internal/kb, the file
// sweep -history also writes, for -suite guidelines every adopted mock) and
// reuses it on the next invocation (ADCL's historic learning). With -verify
// it then applies the paper's verification-run methodology (§IV-A, Fig 2) to
// the same scenario: every fixed implementation is measured beside the
// selector and the winner is judged correct when it is within 5% of the best
// fixed run.
//
// Examples:
//
//	tune -op ialltoall -platform crill -np 32 -msg 131072
//	tune -op ibcast -selector attr-heuristic -np 16
//	tune -op ialltoall-prim -np 16         # algorithm x primitive (put/get) set
//	tune -op ialltoall -history /tmp/adcl.json   # run twice to see the hit
//	tune -op ialltoall -metrics audit.json       # selection audit + overlap
//	tune -op ialltoall -np 32 -progress 5 -verify   # was the winner correct?
//	tune -op ialltoall -selector speculative+brute-force   # one world per candidate
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nbctune/internal/bench"
	"nbctune/internal/chaos/profiles"
	"nbctune/internal/core"
	"nbctune/internal/kb"
	"nbctune/internal/mpi"
	"nbctune/internal/obs"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var ferr flagError
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0) // the flag set printed the usage
	case errors.As(err, &ferr):
		os.Exit(2) // the flag set printed the error and the usage
	default:
		fmt.Fprintln(os.Stderr, "tune:", err)
		os.Exit(1)
	}
}

// flagError is a command line the flag set refused; it has printed why.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

// run is the whole command: it parses args, runs the session and writes the
// report to stdout (main_test.go pins its output byte for byte).
func run(args []string, stdout, stderr io.Writer) error {
	fl := flag.NewFlagSet("tune", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		platName = fl.String("platform", "crill", "platform preset: crill, whale, whale-tcp, bgp, bgp-16k")
		np       = fl.Int("np", 16, "number of ranks")
		opName   = fl.String("op", "ialltoall", "operation: "+strings.Join(core.OpNames(), ", "))
		msg      = fl.Int("msg", 128*1024, "message size in bytes")
		compute  = fl.Float64("compute", 0.02, "compute seconds per iteration")
		progress = fl.Int("progress", 5, "progress calls per iteration")
		iters    = fl.Int("iters", 0, "loop iterations (0 = enough for learning + 10)")
		selName  = fl.String("selector", "brute-force", "selection logic: brute-force, attr-heuristic, factorial-2k, adaptive[+inner], brute-force-mean, or speculative+inner (every candidate measured on its own copy of the world at the decision point)")
		evals    = fl.Int("evals", 3, "measurements per implementation")
		seed     = fl.Int64("seed", 1, "simulation seed")
		histPath = fl.String("history", "", "history file for persistent learning (optional)")
		tracOut  = fl.String("trace", "", "write a Chrome trace-event JSON of the run (open in Perfetto)")
		metrOut  = fl.String("metrics", "", "write overlap metrics + the rank-0 selection audit as JSON")
		chaosStr = fl.String("chaos", "off", "fault/noise injection profile: off or a profile name")
		chaosSd  = fl.Int64("chaos-seed", 1, "seed for the chaos injector's deterministic streams")
		verify   = fl.Bool("verify", false, "also measure every fixed implementation on the micro-benchmark loop and report whether the selector's winner is correct")
	)
	if err := fl.Parse(args); err != nil {
		return flagError{err}
	}
	if *evals < 1 {
		return fmt.Errorf("-evals %d: every implementation needs at least one measurement", *evals)
	}

	plat, err := platform.ByName(*platName)
	if err != nil {
		return err
	}
	prof, err := profiles.ByName(*chaosStr)
	if err != nil {
		return err
	}
	if prof == nil {
		fl.Visit(func(f *flag.Flag) {
			if f.Name == "chaos-seed" {
				err = fmt.Errorf("-chaos-seed: no -chaos profile to seed")
			}
		})
		if err != nil {
			return err
		}
	}
	// The scenario as a micro-benchmark spec: it names the op, assembles the
	// world and carries the loop parameters of every path below.
	mspec := bench.MicroSpec{
		Platform: plat, Procs: *np, MsgSize: *msg, Op: *opName,
		ComputePerIter: *compute, Iterations: *iters, ProgressCalls: *progress,
		Seed: *seed, EvalsPerFn: *evals,
	}
	if prof != nil {
		mspec.Chaos, mspec.ChaosSeed = prof.Name, *chaosSd
	}
	op, err := core.OpByName(*opName)
	if err != nil {
		return err
	}

	// The knowledge base the session consults: the -history file (a kb
	// snapshot), or memory without one. It is asked once, here on the host.
	// The environment fingerprint gates hits: a winner tuned on a clean flat
	// fabric must not be replayed under a chaos profile (or vice versa).
	env := core.EnvFingerprint(plat.Net.Topology.String(), mspec.Chaos, *chaosSd)
	histKey := core.HistoryKey(*opName, plat.Name, *np, *msg)
	store, err := kb.Open(kb.StoreOptions{SnapshotPath: *histPath})
	if err != nil {
		return err
	}
	prior, hit := store.Lookup(histKey, env)
	// A guideline mock the audit promoted (sweep -suite guidelines -history)
	// is no member of the op's own set: it joins it for this session, as it
	// did in the audit.
	if def, ok := core.MockByName(prior.Winner); hit && ok && def.Op == *opName {
		mspec.Mocks = []string{prior.Winner}
	}
	hostFS, err := mspec.HostFunctionSet()
	if err != nil {
		return err
	}
	// A speculative name is vetted through its inner logic; its session
	// measures the candidates outside the tuning loop (below).
	inner, speculate := core.SpeculativeInner(*selName)
	if _, err := core.SelectorByName(inner, hostFS, *evals); err != nil {
		return err
	}
	// known is the recorded winner's index in the function set, -1 when
	// there is none to replay.
	known := -1
	if hit {
		if known = hostFS.IndexOf(prior.Winner); known < 0 {
			fmt.Fprintf(stderr, "tune: recorded winner %q for %q is not an implementation of %s, learning afresh\n", prior.Winner, histKey, *opName)
		}
	}

	// Warm history leaves no learning phase to speculate on: fall through to
	// the normal fixed-winner path.
	speculate = speculate && known < 0

	var rec *obs.Recorder
	var report string
	var winnerName string
	var evalsUsed int
	var audit *obs.Audit
	var specRes *bench.SpecResult
	if speculate {
		if mspec.Iterations == 0 {
			mspec.Iterations = 10 // all iterations run post-decision
		}
		// The trace is the committed-winner loop's; -metrics alone keeps
		// its overlap block empty, as the selection happened off that loop.
		traced := mspec
		traced.Observe = *tracOut != ""
		sr, err := bench.RunSpeculative(traced, inner, 0)
		if err != nil {
			return err
		}
		specRes, rec = sr, sr.Recorder
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
			winnerName, evalsUsed, sr.Result.PostLearnPerIter, mspec.Iterations)
	} else {
		if mspec.Iterations == 0 {
			mspec.Iterations = *evals*len(hostFS.Fns) + 10
		}
		w, err := mspec.World()
		if err != nil {
			return err
		}
		if *tracOut != "" || *metrOut != "" {
			rec = obs.NewRecorder(*np)
			w.Observe(rec)
		}
		if known >= 0 {
			fmt.Fprintf(stdout, "history hit for %q: learning phase skipped\n\n", histKey)
		}
		// The tuning loop proper: bench's iteration body between no barriers,
		// so the report's times are those of the loop alone. Set and selector
		// were built on the host above, so neither can fail on a rank.
		w.Start(func(c *mpi.Comm) {
			fs := must(op.Set(c, *msg, mspec.Mocks))
			sel := must(core.SelectorByName(inner, fs, *evals))
			if known >= 0 {
				sel = &core.FixedSelector{Fn: known}
			}
			if c.Rank() == 0 && rec != nil {
				audit = core.AttachAudit(sel, fs)
			}
			req := core.MustRequest(fs, sel, c.Now)
			timer := core.MustTimer(c.Now, req)
			for it := 0; it < mspec.Iterations; it++ {
				mspec.Iterate(c, req, timer)
			}
			if c.Rank() == 0 {
				report = core.TuningReport(req)
				if w := req.Winner(); w != nil {
					winnerName = w.Name
					evalsUsed = req.Selector().Evals()
				}
			}
		})
		w.Run()
	}

	fmt.Fprintf(stdout, "platform %s, %d ranks, %d-byte messages, %g s compute/iter, %d progress calls\n\n",
		plat.Name, *np, *msg, *compute, *progress)
	fmt.Fprint(stdout, report)

	if *verify {
		v, err := bench.RunVerificationOpts(mspec, bench.RunOptions{}, *selName)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		verificationTable(v).Render(stdout)
	}

	// A learned winner goes to the history file; a replayed one is already
	// there.
	if known < 0 && winnerName != "" && *histPath != "" {
		store.Put(kb.Record{Key: histKey, Env: env, Winner: winnerName, Evals: evalsUsed})
		if err := store.Flush(false); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwinner stored in %s under key %q\n", *histPath, histKey)
	}

	if *tracOut != "" {
		if err := runner.WriteFileAtomic(*tracOut, rec.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntrace written to %s\n", *tracOut)
	}
	if *metrOut != "" {
		out := tuneMetrics{
			Platform: plat.Name, Op: *opName, Procs: *np, MsgSize: *msg,
			Compute: *compute, ProgressCalls: *progress, Selector: *selName,
			Seed: *seed, Winner: winnerName, Evals: evalsUsed,
			Chaos: mspec.Chaos, ChaosSeed: mspec.ChaosSeed,
			Audit: audit,
		}
		if rec != nil {
			out.Metrics = rec.Metrics()
		}
		if specRes != nil {
			// Everything recorded here is virtual-time and candidate-order
			// deterministic: runs on any number of host cores write
			// byte-identical artifacts (make e2e pins this).
			out.SpecLatency = specRes.SpecLatency
			out.SeqLatency = specRes.SeqLatency
			out.CandidateTime = specRes.CandidateTime
			out.EvalRounds = specRes.EvalRounds
		}
		if err := runner.WriteJSON(*metrOut, out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nmetrics + selection audit written to %s\n", *metrOut)
	}
	return nil
}

// must unwraps a result whose error only a bug can produce.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
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

	// Speculative-selection fields (-selector speculative+<inner>): virtual
	// selection latencies and per-candidate measurement costs. The candidate
	// worker count is deliberately absent — no field depends on it.
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
