package nbctune_test

// Cross-stack integration tests: scenarios that exercise the whole pipeline
// (sim -> netmodel -> mpi -> nbc -> core -> bench) rather than one layer.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nbctune/internal/bench"
	"nbctune/internal/core"
	"nbctune/internal/fft"
	"nbctune/internal/kb"
	"nbctune/internal/mpi"
	"nbctune/internal/obs"
	"nbctune/internal/platform"
)

// TestIntegration_PutPrimitiveWinsWhenProgressStarved drives the paper's
// proposed primitive attribute end to end: with rendezvous-sized blocks and
// a single progress call right before the wait, the two-sided algorithms
// cannot complete their handshakes during compute, while the one-sided
// linear variant flows autonomously on RDMA. ADCL must discover this.
func TestIntegration_PutPrimitiveWinsWhenProgressStarved(t *testing.T) {
	plat, err := platform.ByName("crill")
	if err != nil {
		t.Fatal(err)
	}
	const np = 8
	const msg = 256 * 1024
	eng, world, err := plat.NewWorld(np, 5)
	if err != nil {
		t.Fatal(err)
	}
	var winner string
	world.Start(func(c *mpi.Comm) {
		fs := core.IalltoallPrimitivesSet(c, mpi.Virtual(np*msg), mpi.Virtual(np*msg))
		req := core.MustRequest(fs, core.NewBruteForce(len(fs.Fns), 3), c.Now)
		timer := core.MustTimer(c.Now, req)
		for it := 0; it < 25; it++ {
			timer.Start()
			req.Init()
			c.Compute(30e-3) // no progress calls during compute
			req.Progress()   // a single call right before the wait
			req.Wait()
			core.StopMaybeSynced(c, timer, req)
		}
		if c.Rank() == 0 {
			winner = req.Winner().Name
		}
	})
	eng.Run()
	if winner != "ialltoall-linear-put" {
		t.Fatalf("winner = %q, expected the one-sided linear algorithm in a progress-starved regime", winner)
	}
}

// TestIntegration_HistoryAcrossSimulatedRuns exercises ADCL's historic
// learning across two independent simulations (two "application runs").
func TestIntegration_HistoryAcrossSimulatedRuns(t *testing.T) {
	histPath := filepath.Join(t.TempDir(), "hist.json")
	plat, err := platform.ByName("whale")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (winner string, evals int) {
		hist, err := kb.Open(kb.StoreOptions{SnapshotPath: histPath})
		if err != nil {
			t.Fatal(err)
		}
		key := core.HistoryKey("ialltoall", plat.Name, 8, 64*1024)
		eng, world, err := plat.NewWorld(8, 9)
		if err != nil {
			t.Fatal(err)
		}
		world.Start(func(c *mpi.Comm) {
			fs := core.IalltoallSet(c, mpi.Virtual(8*64*1024), mpi.Virtual(8*64*1024), false)
			sel, _ := core.SelectorWithHistory(hist, key, "", fs, core.NewBruteForce(len(fs.Fns), 4))
			req := core.MustRequest(fs, sel, c.Now)
			timer := core.MustTimer(c.Now, req)
			for it := 0; it < 20; it++ {
				timer.Start()
				req.Init()
				for k := 0; k < 4; k++ {
					c.Compute(2e-3)
					req.Progress()
				}
				req.Wait()
				core.StopMaybeSynced(c, timer, req)
			}
			if c.Rank() == 0 {
				winner = req.Winner().Name
				evals = req.Selector().Evals()
			}
		})
		eng.Run()
		hist.Put(kb.Record{Key: key, Winner: winner, Evals: evals})
		if err := hist.Flush(false); err != nil {
			t.Fatal(err)
		}
		return winner, evals
	}
	w1, e1 := run()
	w2, e2 := run()
	if w1 != w2 {
		t.Fatalf("winners differ across runs: %q vs %q", w1, w2)
	}
	if e1 == 0 {
		t.Fatal("first run should have learned")
	}
	if e2 != 0 {
		t.Fatalf("second run consumed %d evals; history should have skipped learning", e2)
	}
}

// TestIntegration_VerificationDeterministic: the whole verification pipeline
// is reproducible bit-for-bit for a fixed seed.
func TestIntegration_VerificationDeterministic(t *testing.T) {
	plat, err := platform.ByName("crill")
	if err != nil {
		t.Fatal(err)
	}
	spec := bench.MicroSpec{
		Platform: plat, Procs: 8, MsgSize: 64 * 1024, Op: bench.OpIalltoall,
		ComputePerIter: 5e-3, Iterations: 15, ProgressCalls: 3, Seed: 77, EvalsPerFn: 2,
	}
	v1, err := bench.RunVerificationOpts(spec, bench.RunOptions{}, "brute-force")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := bench.RunVerificationOpts(spec, bench.RunOptions{}, "brute-force")
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1.Fixed {
		if v1.Fixed[i].Total != v2.Fixed[i].Total {
			t.Fatalf("fixed run %d differs: %g vs %g", i, v1.Fixed[i].Total, v2.Fixed[i].Total)
		}
	}
	if v1.ADCL[0].Total != v2.ADCL[0].Total || v1.ADCL[0].Winner != v2.ADCL[0].Winner {
		t.Fatal("ADCL run not deterministic")
	}
}

// TestIntegration_TraceObservesRendezvous: attach a recorder and check the
// library's protocol transitions are visible on the NIC timelines of the
// exported trace.
func TestIntegration_TraceObservesRendezvous(t *testing.T) {
	plat, err := platform.ByName("whale")
	if err != nil {
		t.Fatal(err)
	}
	eng, world, err := plat.NewWorld(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(4)
	world.Observe(rec)
	world.Start(func(c *mpi.Comm) {
		c.Alltoall(mpi.Virtual(4*64*1024), mpi.Virtual(4*64*1024)) // rendezvous-sized blocking alltoall
	})
	eng.Run()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Cat  string  `json:"cat"`
			Ts   float64 `json:"ts"`
			Args struct {
				Dir string `json:"dir"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var firstTX, firstRX float64 = -1, -1
	count := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Cat != "nic" {
			continue
		}
		count[ev.Args.Dir]++
		first := &firstTX
		if ev.Args.Dir == obs.RX.String() {
			first = &firstRX
		}
		if *first < 0 || ev.Ts < *first {
			*first = ev.Ts
		}
	}
	tx, rx := count[obs.TX.String()], count[obs.RX.String()]
	if tx != 4*3 || rx != 4*3 {
		t.Fatalf("trace holds %d TX and %d RX NIC spans, want 12 each", tx, rx)
	}
	if firstRX <= firstTX {
		t.Fatalf("first RX span starts at %g, not after the first TX span at %g", firstRX, firstTX)
	}
}

// TestIntegration_FFTFlavorsConsistentTimes: for one scenario, every flavor
// produces a positive, finite, deterministic virtual time, and the ADCL
// flavors decide.
func TestIntegration_FFTFlavorsConsistentTimes(t *testing.T) {
	plat, err := platform.ByName("bgp")
	if err != nil {
		t.Fatal(err)
	}
	spec := bench.FFTSpec{
		Platform: plat, Procs: 16, N: 64, Pattern: fft.WindowTiled,
		Iterations: 12, Seed: 13, EvalsPerFn: 1,
	}
	rs, err := bench.FFTComparison(spec, []fft.Flavor{fft.FlavorMPI, fft.FlavorNBC, fft.FlavorADCL, fft.FlavorADCLExt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Total <= 0 {
			t.Fatalf("%s: nonpositive total", r.Label)
		}
	}
	if rs[2].Winner == "" || rs[3].Winner == "" {
		t.Fatal("ADCL flavors did not decide")
	}
	// The extended set includes everything the plain set has, so its winner
	// should never be *slower* than the plain set's in steady state.
	if rs[3].PostLearnPerIter > rs[2].PostLearnPerIter*1.05 {
		t.Fatalf("extended set post-learning %.4g worse than plain %.4g",
			rs[3].PostLearnPerIter, rs[2].PostLearnPerIter)
	}
}

// TestIntegration_SweepMachinery: tiny sweeps produce sane aggregates.
func TestIntegration_SweepMachinery(t *testing.T) {
	plat, err := platform.ByName("crill")
	if err != nil {
		t.Fatal(err)
	}
	specs := []bench.MicroSpec{{
		Platform: plat, Procs: 8, MsgSize: 128 * 1024, Op: bench.OpIalltoall,
		ComputePerIter: 2e-2, Iterations: 14, ProgressCalls: 5, Seed: 3, EvalsPerFn: 3,
	}}
	st, err := bench.VerificationSweepOpts(specs, []string{"brute-force", "attr-heuristic"}, bench.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range st.Selectors {
		if r := st.Rate(sel); r < 0 || r > 1 {
			t.Fatalf("%s rate = %g", sel, r)
		}
	}
}

// TestPerfModuleBuilds: perf/ is its own module, which `go test ./...` from
// the root does not reach, yet it compiles against this module's internal
// packages. Vetting it here makes an API deletion that breaks the
// benchmark's build fail tier-1, not only `make vet`.
func TestPerfModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on the perf module")
	}
	if out, err := exec.Command("go", "vet", "-C", "perf", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C perf ./...: %v\n%s", err, out)
	}
}

// TestAuditHistoryTuneLoop closes the audit -> history -> tune loop with the
// built commands and no other channel between them: the fast guideline suite
// adopts the scatter+allgather mock for 256 KB broadcasts on whale-tcp and
// files it in h.json, and tune on that scenario replays the mock from the
// file without measuring anything.
func TestAuditHistoryTuneLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/sweep and cmd/tune")
	}
	bin := buildCommands(t)
	dir := t.TempDir()
	command := func(name string, args ...string) (stdout, stderr string) {
		var o, e bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &o, &e
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, e.Bytes())
		}
		return o.String(), e.String()
	}
	if _, diag := command("sweep", "-suite", "guidelines", "-fast", "-quiet", "-out", "r.json", "-history", "h.json"); !strings.Contains(diag, "1 tuned winners filed in h.json") {
		t.Fatalf("sweep did not file the adopted mock:\n%s", diag)
	}
	out, _ := command("tune", "-op", "ibcast", "-platform", "whale-tcp", "-np", "16", "-msg", "262144", "-history", "h.json")
	if !strings.HasPrefix(out, "history hit for ") || !strings.Contains(out, "decision: "+core.MockIbcastScatterAllgather+" after 0 measurements") {
		t.Fatalf("tune did not replay the mock sweep filed:\n%s", out)
	}
}

// TestCacheNotServedToAnotherBinary: a result store serves an entry only to
// the binary that wrote it. sweep is built twice, plain and with -trimpath,
// which yields different bytes from the same source; the first binary
// simulates fig6 into an empty store and is then served all of it, and the
// second simulates everything again. All three print the same tables.
func TestCacheNotServedToAnotherBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/sweep twice and runs it three times")
	}
	bin := t.TempDir()
	plain, trimmed := filepath.Join(bin, "plain", "sweep"), filepath.Join(bin, "trimmed", "sweep")
	for path, flags := range map[string][]string{plain: nil, trimmed: {"-trimpath"}} {
		args := append(append([]string{"build"}, flags...), "-o", path, "./cmd/sweep")
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	a, errA := os.ReadFile(plain)
	b, errB := os.ReadFile(trimmed)
	if errA != nil || errB != nil || bytes.Equal(a, b) {
		t.Fatalf("the two builds must be readable and differ (%v, %v)", errA, errB)
	}
	dir := t.TempDir()
	sweep := func(exe string) (tables string, cached, ran int) {
		var o, e bytes.Buffer
		cmd := exec.Command(exe, "-suite", "fig6", "-fast", "-cache", "cache")
		cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &o, &e
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", exe, err, e.Bytes())
		}
		for _, line := range strings.Split(e.String(), "\n") {
			switch {
			case strings.Contains(line, " cached eta="):
				cached++
			case strings.Contains(line, "s eta="):
				ran++
			}
		}
		return o.String(), cached, ran
	}
	want, cached, ran := sweep(plain)
	if cached != 0 || ran != 6 {
		t.Fatalf("first run on an empty store: %d cached, %d simulated; want 0 and 6", cached, ran)
	}
	for _, run := range []struct {
		exe    string
		cached int
	}{{plain, 6}, {trimmed, 0}} {
		out, cached, ran := sweep(run.exe)
		if cached != run.cached || cached+ran != 6 {
			t.Errorf("%s: %d of 6 scenarios cached (%d simulated), want %d", run.exe, cached, ran, run.cached)
		}
		if out != want {
			t.Errorf("%s printed other tables than the first run:\n%s\nwant\n%s", run.exe, out, want)
		}
	}
}

// TestExamplesRun: `go build ./...` only compiles the example programs, and
// customfunctions is the only program that calls core.SelectorWithHistory.
// Each is built and run here, from a scratch directory, and must exit 0.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example programs")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, main := range mains {
		name := filepath.Base(filepath.Dir(main))
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(bin, name))
			cmd.Dir = t.TempDir()
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
		})
	}
}
