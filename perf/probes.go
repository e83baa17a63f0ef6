package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"nbctune/internal/bench"
	"nbctune/internal/core"
	"nbctune/internal/fft"
	"nbctune/internal/guideline"
	"nbctune/internal/kb"
	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/netmodel"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
	"nbctune/internal/sim"
	"nbctune/internal/stats"
)

// Layer probes: small fixed-count measurements of single layers, run after
// the traced workload of every traced run (the per-layer metric list is the
// same for every workload). Each calls only public functions of the layer
// it names. Counts are fixed, so the exact metrics (events per message,
// evals per decision, window barriers) repeat on every run.

const refGuideline = "results/guideline_report.json"

// seconds times f.
func seconds(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// bestOf returns the smallest of n timings of f: for a fixed amount of work
// the minimum is the reading least disturbed by the host.
func bestOf(n int, f func()) float64 {
	best := seconds(f)
	for i := 1; i < n; i++ {
		best = min(best, seconds(f))
	}
	return best
}

func mustPlatform(name string) platform.Platform {
	p, err := platform.ByName(name)
	if err != nil {
		panic(err) // a preset the repository ships
	}
	return p
}

func runProbes(cfg config, res *result) error {
	probeHost(res)
	if err := probeLadder(cfg, res); err != nil {
		return err
	}
	if err := probeSim(cfg, res); err != nil {
		return err
	}
	probeNetmodel(cfg, res)
	if err := probeMPI(cfg, res); err != nil {
		return err
	}
	probeNBC(res)
	if err := probeCore(cfg, res); err != nil {
		return err
	}
	if err := probeFFT(cfg, res); err != nil {
		return err
	}
	if err := probeHarness(cfg, res); err != nil {
		return err
	}
	return probeKB(cfg, res)
}

// probeHost times a fixed integer loop: a reading of the host's speed at
// the moment of the run, for telling a slow host phase from a slow commit.
func probeHost(res *result) {
	const n = 20_000_000
	var x uint64 = 88172645463325252
	t := bestOf(3, func() {
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	})
	if x == 0 {
		panic("xorshift reached zero")
	}
	res.add("host.spin_ns", "ns", t*1e9/n, 3)
}

// ---- layer ladder ---------------------------------------------------------

// ladderIters × 16×15 = 12 000 messages of one linear all-to-all on crill, executed
// at successive depths of the stack. Every rung moves the same messages;
// the step between two rungs is the upper layer's own cost per message.
const (
	ladderRanks = 16
	ladderIters = 50
)

type ladderRung struct {
	layer string
	// run executes the pattern with blocks of bs bytes and returns the
	// engine events it fired (0 when the rung hides its engine).
	run func(bs, iters int, seed int64) (events int64, err error)
}

// ladderPeerState is what a delivery event needs at the sim and netmodel
// rungs: the receiving rank's arrival count and the cond it waits on.
type ladderPeerState struct {
	got  int
	cond *sim.Cond
}

func ladderArrive(arg any) {
	st := arg.(*ladderPeerState)
	st.got++
	st.cond.Broadcast()
}

// ladderBare is the pattern with no MPI: per message one Sleep (the send
// overhead) and one delivery event, scheduled either directly on the engine
// or through netmodel.Transfer; each rank then waits for its 15 arrivals.
func ladderBare(useNet bool) func(bs, iters int, seed int64) (int64, error) {
	return func(bs, iters int, seed int64) (int64, error) {
		crill := mustPlatform("crill")
		eng := sim.NewEngine(seed)
		var net *netmodel.Network
		if useNet {
			nodeOf, err := crill.NodeOf(ladderRanks, platform.Cyclic)
			if err != nil {
				return 0, err
			}
			if net, err = netmodel.New(eng, crill.Net, nodeOf); err != nil {
				return 0, err
			}
		}
		states := make([]*ladderPeerState, ladderRanks)
		for i := range states {
			states[i] = &ladderPeerState{cond: sim.NewCond(eng)}
		}
		for me := 0; me < ladderRanks; me++ {
			me := me
			eng.Spawn(fmt.Sprintf("rank%d", me), func(p *sim.Proc) {
				for it := 1; it <= iters; it++ {
					for off := 1; off < ladderRanks; off++ {
						peer := (me + off) % ladderRanks
						p.Sleep(crill.Net.OSend)
						if useNet {
							net.Transfer(me, peer, bs, ladderArrive, states[peer])
						} else {
							eng.AtCall(crill.Net.Latency, ladderArrive, states[peer])
						}
					}
					for states[me].got < it*(ladderRanks-1) {
						states[me].cond.Wait(p)
					}
				}
			})
		}
		eng.Run()
		return eng.EventsFired, nil
	}
}

// ladderWorld runs prog on a 16-rank crill world.
func ladderWorld(prog func(c *mpi.Comm, iters int, send, recv mpi.Buf)) func(bs, iters int, seed int64) (int64, error) {
	return func(bs, iters int, seed int64) (int64, error) {
		eng, w, err := mustPlatform("crill").NewWorld(ladderRanks, 1+seed)
		if err != nil {
			return 0, err
		}
		w.Start(func(c *mpi.Comm) {
			prog(c, iters, mpi.Virtual(ladderRanks*bs), mpi.Virtual(ladderRanks*bs))
		})
		eng.Run()
		return eng.EventsFired, nil
	}
}

var ladder = []ladderRung{
	{"sim", ladderBare(false)},
	{"netmodel", ladderBare(true)},
	{"mpi", ladderWorld(func(c *mpi.Comm, iters int, send, recv mpi.Buf) {
		n, me := c.Size(), c.Rank()
		bs := send.Len() / n
		reqs := make([]*mpi.Request, 0, 2*(n-1))
		for it := 0; it < iters; it++ {
			reqs = reqs[:0]
			for off := 1; off < n; off++ {
				peer := (me + off) % n
				reqs = append(reqs, c.Irecv(peer, it, recv.Slice(peer*bs, bs)))
			}
			for off := 1; off < n; off++ {
				peer := (me - off + n) % n
				reqs = append(reqs, c.Isend(peer, it, send.Slice(peer*bs, bs)))
			}
			c.Wait(reqs...)
			c.FreeRequests(reqs...)
		}
	})},
	{"nbc", ladderWorld(func(c *mpi.Comm, iters int, send, recv mpi.Buf) {
		sched := nbc.Ialltoall(c.Size(), c.Rank(), send, recv, nbc.AlgoLinear)
		for it := 0; it < iters; it++ {
			nbc.Run(c, sched)
		}
	})},
	{"core", ladderWorld(func(c *mpi.Comm, iters int, send, recv mpi.Buf) {
		fs := core.IalltoallSet(c, send, recv, false)
		req := core.MustRequest(fs, &core.FixedSelector{Fn: fs.IndexOf("ialltoall-linear")}, c.Now)
		timer := core.MustTimer(c.Now, req)
		for it := 0; it < iters; it++ {
			timer.Start()
			req.Init()
			req.Wait()
			timer.Stop()
		}
	})},
	{"bench", func(bs, iters int, seed int64) (int64, error) {
		spec := bench.MicroSpec{
			Platform: mustPlatform("crill"), Procs: ladderRanks, MsgSize: bs, Op: bench.OpIalltoall,
			ComputePerIter: 1e-3, Iterations: iters, ProgressCalls: 1, Seed: 1 + seed, EvalsPerFn: 2,
		}
		r, err := bench.RunFixed(spec, 0)
		if err == nil && r.Impl != "ialltoall-linear" {
			err = fmt.Errorf("ladder: function 0 of the ialltoall set is %q, not the linear algorithm", r.Impl)
		}
		return 0, err
	}},
}

// probeLadder reports, per block size, each rung's host nanoseconds per
// simulated message (best of three interleaved repetitions) and the exact
// events per message of the rungs whose engine is visible. A rung that
// times below the one under it is within the noise floor of the step and
// is reported at the lower rung's value, so the ladder reads cumulatively.
func probeLadder(cfg config, res *result) error {
	small := cfg.tiny()
	iters := ladderIters
	if small {
		iters = 4
	}
	msgs := float64(iters * ladderRanks * (ladderRanks - 1))
	for _, size := range []struct {
		name  string
		bytes int
	}{{"1k", 1024}, {"128k", 128 * 1024}} {
		ns := make([]float64, len(ladder))
		events := make([]int64, len(ladder))
		for rep := 0; rep < 3; rep++ {
			for i, rung := range ladder {
				var err error
				t := seconds(func() { events[i], err = rung.run(size.bytes, iters, cfg.seed) })
				if err != nil {
					return fmt.Errorf("ladder rung %s: %w", rung.layer, err)
				}
				if v := t * 1e9 / msgs; rep == 0 || v < ns[i] {
					ns[i] = v
				}
			}
		}
		for i, rung := range ladder {
			if i > 0 {
				ns[i] = max(ns[i], ns[i-1])
			}
			res.add(rung.layer+".ladder_ns_per_msg."+size.name, "ns", ns[i], 3)
		}
		for i, rung := range ladder[:4] {
			res.add(rung.layer+".ladder_events_per_msg."+size.name, "count", float64(events[i])/msgs, 0)
		}
	}
	return nil
}

// ---- sim ------------------------------------------------------------------

func probeSim(cfg config, res *result) error {
	small := cfg.tiny()
	// BENCH_sim.json's workload: 8 sleeping procs plus two pure timer events
	// per proc wake.
	wakes := 20000
	if small {
		wakes = 500
	}
	{
		e := sim.NewEngine(1)
		for pi := 0; pi < 8; pi++ {
			e.Spawn("p", func(p *sim.Proc) {
				for i := 0; i < wakes; i++ {
					p.Sleep(1e-6)
				}
			})
		}
		for i := 0; i < 2*8*wakes; i++ {
			e.At(float64(i)*0.5e-6, func() {})
		}
		t := seconds(func() { e.Run() })
		res.add("sim.events_per_s.bare", "1/s", float64(e.EventsFired)/t, 0)
	}

	// The decay curve: the scale workload (one barrier+bcast) at 1K and 16K
	// ranks, one pass each, timed like BENCH_scale.json (Start + Run).
	for _, pt := range []struct {
		name  string
		ranks int
	}{{"np1024", 1024}, {"np16384", 16384}} {
		ranks := pt.ranks
		if small {
			ranks /= 64
		}
		eng, w, err := mustPlatform("bgp-16k").NewWorldPlaced(ranks, 1+cfg.seed, platform.Block)
		if err != nil {
			return err
		}
		t := seconds(func() {
			w.Start(barrierBcast(1))
			eng.Run()
		})
		res.add("sim.events_per_s."+pt.name, "1/s", float64(eng.EventsFired)/t, 0)
	}

	// Event-heap cost at a held depth: d self-rescheduling timer chains keep
	// d events queued while a fixed number fire.
	fires := 400000
	if small {
		fires = 20000
	}
	for _, pt := range []struct {
		name  string
		depth int
	}{{"d1k", 1 << 10}, {"d64k", 1 << 16}} {
		e := sim.NewEngine(1)
		rng := rand.New(rand.NewSource(1))
		delays := make([]float64, 4096)
		for i := range delays {
			delays[i] = 1e-6 * (0.5 + rng.Float64())
		}
		left := fires
		var hold func(any)
		hold = func(arg any) {
			if left > 0 {
				left--
				next := arg.(*int)
				*next++
				e.AtCall(delays[*next&4095], hold, next)
			}
		}
		for i := 0; i < pt.depth; i++ {
			next := i * 7
			e.AtCall(delays[i&4095], hold, &next)
		}
		t := seconds(func() { e.Run() })
		res.add("sim.heap_ns_per_event."+pt.name, "ns", t*1e9/float64(e.EventsFired), 0)
	}

	// Goroutine hand-off: two procs ping-pong on a pair of conds.
	{
		trips := 100000
		if small {
			trips = 2000
		}
		e := sim.NewEngine(1)
		ping, pong := sim.NewCond(e), sim.NewCond(e)
		turn := 0
		e.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < trips; i++ {
				turn = 1
				pong.Signal()
				for turn != 0 {
					ping.Wait(p)
				}
			}
		})
		e.Spawn("b", func(p *sim.Proc) {
			for i := 0; i < trips; i++ {
				for turn != 1 {
					pong.Wait(p)
				}
				turn = 0
				ping.Signal()
			}
		})
		t := seconds(func() { e.Run() })
		res.add("sim.switch_ns", "ns", t*1e9/float64(2*trips), 0)
	}

	// Snapshot/fork of a 4096-rank world at its final quiescent point: the
	// engine alone, and the whole MPI world (mpi.fork_us).
	{
		ranks := 4096
		if small {
			ranks = 128
		}
		eng, w, err := mustPlatform("bgp-16k").NewWorldPlaced(ranks, 1+cfg.seed, platform.Block)
		if err != nil {
			return err
		}
		w.Start(barrierBcast(1))
		eng.Run()
		esnap, err := eng.Snapshot()
		if err != nil {
			return fmt.Errorf("sim fork probe: %w", err)
		}
		res.add("sim.fork_us.np4096", "us", bestOf(3, func() { esnap.Fork() })*1e6, 3)
		wsnap, err := w.Snapshot()
		if err != nil {
			return fmt.Errorf("mpi fork probe: %w", err)
		}
		res.add("mpi.fork_us.np4096", "us", bestOf(3, func() { wsnap.Fork() })*1e6, 3)
	}

	// The same scale program through the windowed (PDES) engine at 1 and 2
	// shards. These move no end-to-end metric until every world goes
	// through sim.Windows.
	ranks := 1024
	if small {
		ranks = 64
	}
	for _, shards := range []int{1, 2} {
		sw, err := mustPlatform("bgp-16k").NewWorldPDES(ranks, 1+cfg.seed, platform.Block, shards)
		if err != nil {
			return err
		}
		t := seconds(func() {
			sw.Start(barrierBcast(1))
			sw.Run()
		})
		res.add(fmt.Sprintf("sim.windows_events_per_s.s%d", shards), "1/s", float64(sw.EventsFired())/t, 0)
		if shards == 2 {
			res.add("sim.windows_barriers", "count", float64(sw.Windows().Barriers), 0)
		}
	}
	return nil
}

// ---- netmodel -------------------------------------------------------------

func probeNetmodel(cfg config, res *result) {
	small := cfg.tiny()
	n := 200000
	if small {
		n = 5000
	}
	noop := func(any) {}
	for _, pt := range []struct {
		name, plat string
		ranks      int
	}{{"flat", "crill", 16}, {"torus", "bgp-16k", 4096}} {
		plat := mustPlatform(pt.plat)
		placement := platform.Cyclic
		if pt.name == "torus" {
			placement = platform.Block
		}
		nodeOf, err := plat.NodeOf(pt.ranks, placement)
		if err != nil {
			panic(err) // rank counts within the presets' capacity
		}
		eng := sim.NewEngine(1)
		net, err := netmodel.New(eng, plat.Net, nodeOf)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(1 + cfg.seed))
		pairs := make([][2]int, 1024)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(pt.ranks), rng.Intn(pt.ranks)}
		}
		// Batches of 1024 transfers, each drained before the next, so the
		// figure is the Transfer call plus its delivery event at shallow
		// heap depth.
		t := seconds(func() {
			for i := 0; i < n; i += len(pairs) {
				for _, p := range pairs {
					net.Transfer(p[0], p[1], 4096, noop, nil)
				}
				eng.Run()
			}
		})
		res.add("netmodel.transfer_ns."+pt.name, "ns", t*1e9/float64(net.Transfers), 0)
		if pt.name == "torus" {
			topo, nodes, sum := net.Topo(), net.Topo().NumNodes(), 0
			t := seconds(func() {
				for i := 0; i < n; i++ {
					p := pairs[i&1023]
					sum += topo.Hops(p[0]%nodes, p[1]%nodes)
				}
			})
			if sum < 0 {
				panic("negative hop count")
			}
			res.add("netmodel.hops_ns", "ns", t*1e9/float64(n), 0)
		}
	}
}

// ---- mpi ------------------------------------------------------------------

func probeMPI(cfg config, res *result) error {
	small := cfg.tiny()
	cycles := 300000
	if small {
		cycles = 5000
	}
	for _, depth := range []int{1, 64, 1024} {
		mb := mpi.NewMatchBench(depth, true)
		mb.RunCycles(4 * depth) // warm buckets and free lists
		t := bestOf(3, func() { mb.RunCycles(cycles) })
		res.add(fmt.Sprintf("mpi.match_ns.d%d", depth), "ns", t*1e9/float64(cycles), 3)
	}

	// Point-to-point: two crill ranks on different nodes exchange messages
	// below (1 KiB) and above (128 KiB) the eager limit.
	msgs := 20000
	if small {
		msgs = 500
	}
	for _, pt := range []struct {
		name  string
		bytes int
	}{{"eager", 1024}, {"rndv", 128 * 1024}} {
		eng, w, err := mustPlatform("crill").NewWorld(2, 1+cfg.seed)
		if err != nil {
			return err
		}
		w.Start(func(c *mpi.Comm) {
			peer := 1 - c.Rank()
			buf := mpi.Virtual(pt.bytes)
			for i := 0; i < msgs; i++ {
				r, s := c.Irecv(peer, 1, buf), c.Isend(peer, 1, buf)
				c.Wait(r, s)
				c.FreeRequests(r, s)
			}
		})
		t := seconds(func() { eng.Run() })
		res.add("mpi.p2p_ns_per_msg."+pt.name, "ns", t*1e9/float64(2*msgs), 0)
	}

	// World construction at 4096 ranks: host time and settled heap per rank
	// (measured as in BENCH_scale.json: GC on both sides).
	ranks := 4096
	if small {
		ranks = 128
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var eng *sim.Engine
	var w *mpi.World
	var err error
	t := seconds(func() { eng, w, err = mustPlatform("bgp-16k").NewWorldPlaced(ranks, 1+cfg.seed, platform.Block) })
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(eng)
	runtime.KeepAlive(w)
	res.add("mpi.new_world_us_per_rank", "us", t*1e6/float64(ranks), 0)
	res.add("mpi.idle_bytes_per_rank", "B", float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/float64(ranks), 0)
	return nil
}

// ---- nbc ------------------------------------------------------------------

func probeNBC(res *result) {
	// Schedule construction: the linear all-to-all of a 512-rank
	// communicator, built for 64 of its ranks.
	const n = 512
	send, recv := mpi.Virtual(n*1024), mpi.Virtual(n*1024)
	entries := 0
	t := seconds(func() {
		for me := 0; me < 64; me++ {
			for _, round := range nbc.Ialltoall(n, me, send, recv, nbc.AlgoLinear).Rounds {
				entries += len(round)
			}
		}
	})
	res.add("nbc.sched_build_ns_per_entry", "ns", t*1e9/float64(entries), 0)

	// Steady-state allocations of one persistent-Ibcast iteration on warm
	// pools (BENCH_mpi.json's pin; must stay 0).
	eng, w, err := mustPlatform("crill").NewWorld(4, 3)
	if err != nil {
		panic(err)
	}
	gate := sim.NewCond(eng)
	released := 0
	w.Start(func(c *mpi.Comm) {
		sched := nbc.Ibcast(4, c.Rank(), 0, mpi.Virtual(32*1024), 2, 8*1024)
		for it := 0; ; it++ {
			for released <= it {
				gate.Wait(c.RankState().Proc())
			}
			nbc.Run(c, sched)
		}
	})
	deadline := 0.0
	step := func() {
		released++
		gate.Broadcast()
		deadline += 1.0
		eng.RunUntil(deadline)
	}
	for i := 0; i < 50; i++ {
		step()
	}
	res.add("nbc.persistent_iter_allocs", "count", testing.AllocsPerRun(200, step), 200)
}

// ---- core -----------------------------------------------------------------

func probeCore(cfg config, res *result) error {
	small := cfg.tiny()
	// Selector cost per consumed sample: decisions over the 21-function
	// Ibcast set fed synthetic timings (no simulation underneath).
	var fs *core.FunctionSet
	eng, w, err := mustPlatform("crill").NewWorld(2, 1)
	if err != nil {
		return err
	}
	w.Start(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			fs = core.IbcastSet(c, 0, mpi.Virtual(1024))
		}
	})
	eng.Run()
	decisions := 2000
	if small {
		decisions = 50
	}
	rng := rand.New(rand.NewSource(1 + cfg.seed))
	timings := make([]float64, 4096)
	for i := range timings {
		timings[i] = 1e-3 * (1 + rng.Float64())
	}
	for _, name := range sweepSelectors {
		samples := 0
		var selErr error
		t := seconds(func() {
			for d := 0; d < decisions; d++ {
				sel, err := core.SelectorByName(name, fs, 2)
				if err != nil {
					selErr = err
					return
				}
				for {
					fn, decided := sel.Next()
					if decided {
						break
					}
					sel.Record(fn, timings[(samples+fn)&4095]*float64(1+fn%5))
					samples++
				}
			}
		})
		if selErr != nil {
			return selErr
		}
		res.add("core.select_ns_per_sample."+name, "ns", t*1e9/float64(samples), 0)
	}

	// Decision cost and quality on the first four grid scenarios (crill,
	// 16 ranks, one progress call: both ops at both sizes), which also
	// times whole scenarios through the bench harness.
	specs := bench.VerificationScenarios(true)[:4]
	if small {
		specs = specs[:1]
	}
	for i := range specs {
		specs[i].Seed += cfg.seed
	}
	var st stamps
	start := time.Now()
	sweep, err := bench.VerificationSweepOpts(specs, sweepSelectors, bench.RunOptions{Workers: 1, Progress: &st})
	if err != nil {
		return err
	}
	for j, name := range sweepSelectors {
		evals := 0
		for _, v := range sweep.Runs {
			evals += v.ADCL[j].Evals
		}
		res.add("core.evals_per_decision."+name, "count", float64(evals)/float64(len(sweep.Runs)), len(sweep.Runs))
		res.add("core.correct_frac."+name, "ratio", sweep.Rate(name), len(sweep.Runs))
	}
	scenarioMS := make([]float64, len(st.done))
	for i, at := range st.done {
		scenarioMS[i] = at.Sub(start).Seconds() * 1e3
		start = at
	}
	res.add("bench.scenario_ms_p50", "ms", median(scenarioMS), len(scenarioMS))

	// Speculative (forked) candidate evaluation, host seconds at 1 and 2
	// fork workers (BENCH_fork.json's ibcast scenario).
	spec := bench.MicroSpec{
		Platform: mustPlatform("whale"), Procs: 8, MsgSize: 128 * 1024, Op: bench.OpIbcast,
		ComputePerIter: 4e-3, Iterations: 10, ProgressCalls: 4, Seed: 7 + cfg.seed, EvalsPerFn: 3,
	}
	for _, workers := range []int{1, 2} {
		var err error
		t := seconds(func() { _, err = bench.RunSpeculative(spec, "brute-force", workers) })
		if err != nil {
			return err
		}
		res.add(fmt.Sprintf("core.speculate_host_s.w%d", workers), "s", t, 0)
	}
	return nil
}

// ---- fft ------------------------------------------------------------------

func probeFFT(cfg config, res *result) error {
	small := cfg.tiny()
	spec := bench.FFTScenarios(true)[0]
	spec.Iterations = 10
	spec.Seed += cfg.seed
	reps := 3
	if small {
		spec.Procs, spec.N, reps = 8, 32, 1
	}
	var all, nbcMS, adclMS []float64
	for rep := 0; rep < reps; rep++ {
		for _, fl := range []fft.Flavor{fft.FlavorNBC, fft.FlavorADCL} {
			s := spec
			s.Flavor = fl
			var err error
			ms := 1e3 * seconds(func() { _, err = bench.RunFFT(s) })
			if err != nil {
				return err
			}
			all = append(all, ms)
			if fl == fft.FlavorNBC {
				nbcMS = append(nbcMS, ms)
			} else {
				adclMS = append(adclMS, ms)
			}
		}
	}
	res.add("fft.kernel_run_ms_p50", "ms", median(all), len(all))
	res.add("fft.adcl_over_nbc_host_ratio", "ratio", median(adclMS)/median(nbcMS), reps)
	return nil
}

// ---- bench / runner / stats / obs / guideline -----------------------------

func probeHarness(cfg config, res *result) error {
	small := cfg.tiny()
	jobs := make([]runner.Job, 1000)
	for i := range jobs {
		jobs[i] = runner.Job{Label: "noop", Run: func() (any, error) { return 0, nil }}
	}
	var err error
	t := seconds(func() { _, err = runner.Run(jobs, runner.Options{Workers: 1}) })
	if err != nil {
		return err
	}
	res.add("runner.overhead_us_per_job", "us", t*1e6/float64(len(jobs)), 0)

	cache, err := runner.OpenCache(filepath.Join(cfg.traceDir, "runner-cache"))
	if err != nil {
		return err
	}
	keyed := make([]runner.Job, 200)
	for i := range keyed {
		key, err := runner.Fingerprint("perf-probe", i)
		if err != nil {
			return err
		}
		keyed[i] = runner.Job{Label: "cached", Key: key, Run: func() (any, error) { return i, nil }}
	}
	if _, err := runner.Run(keyed, runner.Options{Workers: 1, Cache: cache}); err != nil {
		return err
	}
	var hits []runner.Result
	t = seconds(func() { hits, err = runner.Run(keyed, runner.Options{Workers: 1, Cache: cache}) })
	if err != nil {
		return err
	}
	for _, h := range hits {
		if !h.Cached {
			return fmt.Errorf("runner cache probe: job %q missed a cache it had just filled", h.Label)
		}
	}
	res.add("runner.cache_hit_us", "us", t*1e6/float64(len(keyed)), 0)

	xs := make([]float64, 32)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = 1e-3 * (1 + rng.Float64())
	}
	const scores = 200000
	sum := 0.0
	t = seconds(func() {
		for i := 0; i < scores; i++ {
			sum += stats.RobustScore(xs)
		}
	})
	if sum <= 0 {
		panic("robust score of positive samples is not positive")
	}
	res.add("stats.robust_score_ns.n32", "ns", t*1e9/scores, 0)

	// One scenario (16-rank all-to-all, 128 KiB blocks) with the obs recorder
	// attached vs detached, alternating; best of seven each.
	spec := bench.VerificationScenarios(true)[1]
	spec.Seed += cfg.seed
	best := map[bool]float64{}
	for rep := 0; rep < 7; rep++ {
		for _, observe := range []bool{false, true} {
			s := spec
			s.Observe = observe
			var err error
			t := seconds(func() { _, err = bench.RunFixed(s, 0) })
			if err != nil {
				return err
			}
			if rep == 0 || t < best[observe] {
				best[observe] = t
			}
		}
	}
	res.add("obs.observe_overhead_frac", "ratio", best[true]/best[false]-1, 7)

	// The guideline smoke matrix (cmd/audit -matrix smoke -jobs 1); at seed 0
	// the report must equal the committed one byte for byte.
	scenarios := guideline.SmokeScenarios(42+cfg.seed, "", 1)
	if small {
		scenarios = scenarios[:1]
	}
	var rep *guideline.Report
	t = seconds(func() { rep, err = guideline.Run(guideline.Config{Scenarios: scenarios, Adopt: true, Workers: 1}) })
	if err != nil {
		return err
	}
	res.add("guideline.smoke_s", "s", t, 0)
	if cfg.seed == 0 && !small {
		got, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		want, err := os.ReadFile(refGuideline)
		if err != nil {
			return fmt.Errorf("reference %s (run from the repository root): %w", refGuideline, err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			res.failed++
			res.notes = append(res.notes, "FAIL: guideline smoke report differs from "+refGuideline)
		}
	}
	return nil
}

// ---- kb -------------------------------------------------------------------

func probeKB(cfg config, res *result) error {
	small := cfg.tiny()
	preload, reqs, direct := 50000, 12000, 200000
	if small {
		preload, reqs, direct = 1000, 600, 5000
	}

	// The store alone, no HTTP: Zipf lookups, then re-scored puts.
	st := kb.NewStore(kb.StoreOptions{Shards: 64, SnapshotPath: filepath.Join(cfg.traceDir, "kb-snapshot.json")})
	rng := rand.New(rand.NewSource(1 + cfg.seed))
	for i := 0; i < preload; i++ {
		key, env := kbKey(i)
		st.Put(kb.Record{Key: key, Env: env, Winner: "impl-1", Score: 1e-4 + rng.Float64(), Evals: 42})
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(preload-1))
	var keys, envs [4096]string
	for i := range keys {
		keys[i], envs[i] = kbKey(int(zipf.Uint64()))
	}
	found := 0
	t := seconds(func() {
		for i := 0; i < direct; i++ {
			if _, ok := st.Lookup(keys[i&4095], envs[i&4095]); ok {
				found++
			}
		}
	})
	if found != direct {
		return fmt.Errorf("kb store probe: %d of %d preloaded keys found", found, direct)
	}
	res.add("kb.store_lookup_ns", "ns", t*1e9/float64(direct), 0)
	t = seconds(func() {
		for i := 0; i < direct; i++ {
			st.Put(kb.Record{Key: keys[i&4095], Env: envs[i&4095], Winner: "impl-2", Score: 1e-4 + float64(i&1023)/1024, Evals: 42})
		}
	})
	res.add("kb.store_put_ns", "ns", t*1e9/float64(direct), 0)
	var flushErr error
	t = seconds(func() { flushErr = st.Flush(true) })
	if flushErr != nil {
		return flushErr
	}
	res.add("kb.snapshot_ms.50k", "ms", t*1e3, 0)

	// Through HTTP: one closed-loop connection issuing the kb-mixed stream,
	// each request timed. p99 only where at least 1000 samples exist.
	s, err := startKB(preload, cfg.seed)
	if err != nil {
		return err
	}
	defer s.srv.Shutdown(5 * time.Second)
	c := newKBClient(s, 0, cfg.seed)
	defer c.hc.CloseIdleConnections()
	kbRun([]*kbClient{c}, reqs/10, nil, -1, -1) // warm the connection and the server's pools
	c.lat = map[string][]float64{}
	kbRun([]*kbClient{c}, reqs, nil, -1, -1)
	if c.failed > 0 {
		res.failed += c.failed
		res.notes = append(res.notes, "FAIL: kb probe: "+c.first)
	}
	lookups := append(c.lat["lookup-hit"], c.lat["lookup-miss"]...)
	res.add("kb.http_lookup_us_p50", "us", median(lookups), len(lookups))
	res.add("kb.http_lookup_us_p99", "us", quantile(lookups, 0.99), len(lookups))
	res.add("kb.http_record_us_p50", "us", median(c.lat["record"]), len(c.lat["record"]))
	res.add("kb.http_record_us_p99", "us", quantile(c.lat["record"], 0.99), len(c.lat["record"]))
	res.add("kb.http_batch_us_p50", "us", median(c.lat["batch"]), len(c.lat["batch"]))
	res.add("kb.lww_rejects", "count", float64(s.srv.Store.Stats().Rejected), 0)

	// kb.Client's read-through cache: repeated lookups of one key never
	// leave the process after the first.
	kc := kb.NewClient(s.srv.Addr, kb.ClientOptions{})
	key, env := kbKey(0)
	if _, ok, err := kc.Lookup(key, env); err != nil || !ok {
		return fmt.Errorf("kb client probe: first lookup found=%v err=%v", ok, err)
	}
	t = seconds(func() {
		for i := 0; i < direct; i++ {
			kc.Lookup(key, env)
		}
	})
	res.add("kb.client_cached_lookup_ns", "ns", t*1e9/float64(direct), 0)
	return nil
}
