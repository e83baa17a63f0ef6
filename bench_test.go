// Package nbctune_test holds the repository-level ablation benchmarks for
// the design choices the library makes (DESIGN.md §5) and the integration
// tests. The paper's figures and aggregate statistics are suites of the
// scenario catalogue (internal/bench), run by cmd/sweep -suite NAME; host
// time is measured by the repository benchmark (perf/).
//
// Every ablation reports the *virtual* execution time of the simulated
// scenario via custom metrics (vsec_* = virtual seconds); the Go ns/op
// number only measures how fast the simulator itself runs, which is all
// BenchmarkOneShotWorld measures.
package nbctune_test

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"nbctune/internal/bench"
	"nbctune/internal/core"
	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/platform"
	"nbctune/internal/stats"
)

func plat(b *testing.B, name string) platform.Platform {
	b.Helper()
	p, err := platform.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// Ablation 1: statistical outlier filtering. On a noisy platform, scoring by
// plain mean instead of the outlier-filtered mean degrades tuning decisions.
func BenchmarkAblation_OutlierFilter(b *testing.B) {
	spec := bench.MicroSpec{
		Platform: plat(b, "crill"), Procs: 8, MsgSize: 64 * 1024, Op: bench.OpIalltoall,
		ComputePerIter: 5e-3, Iterations: 24, ProgressCalls: 4, Seed: 3, EvalsPerFn: 5,
	}
	for i := 0; i < b.N; i++ {
		withFilter, err := bench.RunADCL(spec, "brute-force")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(withFilter.PostLearnPerIter*1e3, "vms_periter_filtered")
	}
}

// Ablation 2: attribute heuristic vs brute force learning cost on the
// 21-implementation Ibcast set.
func BenchmarkAblation_HeuristicLearningCost(b *testing.B) {
	spec := bench.MicroSpec{
		Platform: plat(b, "whale"), Procs: 8, MsgSize: 2 * 1024 * 1024, Op: bench.OpIbcast,
		ComputePerIter: 0.02, Iterations: 48, ProgressCalls: 5, Seed: 5, EvalsPerFn: 2,
	}
	for i := 0; i < b.N; i++ {
		bf, err := bench.RunADCL(spec, "brute-force")
		if err != nil {
			b.Fatal(err)
		}
		h, err := bench.RunADCL(spec, "attr-heuristic")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(bf.Evals), "evals_bruteforce")
		b.ReportMetric(float64(h.Evals), "evals_heuristic")
		b.ReportMetric(bf.Total, "vsec_bruteforce")
		b.ReportMetric(h.Total, "vsec_heuristic")
	}
}

// Ablation 3: historic learning — a warm run skips the learning phase.
func BenchmarkAblation_HistoricLearning(b *testing.B) {
	spec := bench.MicroSpec{
		Platform: plat(b, "crill"), Procs: 8, MsgSize: 64 * 1024, Op: bench.OpIalltoall,
		ComputePerIter: 5e-3, Iterations: 24, ProgressCalls: 4, Seed: 7, EvalsPerFn: 4,
	}
	for i := 0; i < b.N; i++ {
		cold, err := bench.RunADCL(spec, "brute-force")
		if err != nil {
			b.Fatal(err)
		}
		// Warm: run pinned to the previously learned winner.
		idx := -1
		for j, name := range spec.FunctionNames() {
			if name == cold.Winner {
				idx = j
			}
		}
		warm, err := bench.RunFixed(spec, idx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cold.Total, "vsec_cold")
		b.ReportMetric(warm.Total, "vsec_warm")
	}
}

// Ablation 4: the rendezvous eager limit moves the progress-call cliffs.
func BenchmarkAblation_EagerLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, limit := range []int{4 * 1024, 16 * 1024, 256 * 1024} {
			p := plat(b, "crill")
			p.Net.EagerLimit = limit
			spec := bench.MicroSpec{
				Platform: p, Procs: 16, MsgSize: 64 * 1024, Op: bench.OpIalltoall,
				ComputePerIter: 1e-2, Iterations: 10, ProgressCalls: 1, Seed: 11,
			}
			r, err := bench.RunFixed(spec, 0) // linear
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.PerIter*1e3, "vms_eager_"+itoa(limit/1024)+"k")
		}
	}
}

// Ablation 5: Ibcast segment-size sensitivity (the second attribute of the
// paper's Ibcast function set).
func BenchmarkAblation_SegmentSize(b *testing.B) {
	names := bench.MicroSpec{Platform: plat(b, "whale"), Procs: 2, MsgSize: 1, Op: bench.OpIbcast}.FunctionNames()
	for i := 0; i < b.N; i++ {
		spec := bench.MicroSpec{
			Platform: plat(b, "whale"), Procs: 8, MsgSize: 2 * 1024 * 1024, Op: bench.OpIbcast,
			ComputePerIter: 0.02, Iterations: 10, ProgressCalls: 5, Seed: 13,
		}
		// chain variants are indices of names containing "chain".
		for idx, name := range names {
			if len(name) >= 12 && name[7:12] == "chain" {
				r, err := bench.RunFixed(spec, idx)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.PerIter*1e3, "vms_"+name)
			}
		}
	}
}

// Ablation 6: process arrival patterns (Faraj et al., paper §I). Staggered
// arrival stretches the collective and can shift the optimal algorithm.
func BenchmarkAblation_ArrivalPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, imb := range []float64{0, 0.25, 0.5} {
			spec := bench.MicroSpec{
				Platform: plat(b, "crill"), Procs: 16, MsgSize: 64 * 1024, Op: bench.OpIalltoall,
				ComputePerIter: 5e-3, Iterations: 10, ProgressCalls: 4, Seed: 17, Imbalance: imb,
			}
			r, err := bench.RunFixed(spec, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.PerIter*1e3, "vms_imb"+itoa(int(imb*100)))
		}
	}
}

// Ablation 7 (negative result the Timer design prevents): self-timing the
// Init..Wait interval instead of timing the whole region. This microbenchmark
// demonstrates the measurement machinery itself; see
// core.Request documentation.
func BenchmarkAblation_SelectorOverhead(b *testing.B) {
	// Pure selector-machinery throughput, no simulation.
	fs := &core.FunctionSet{Name: "synthetic"}
	for i := 0; i < 8; i++ {
		fs.Fns = append(fs.Fns, &core.Function{Name: "f" + itoa(i), Start: func() core.Started { return nil }})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := core.NewBruteForceWithScore(len(fs.Fns), 3, stats.Mean)
		for {
			fn, done := sel.Next()
			if done {
				break
			}
			sel.Record(fn, float64(fn))
		}
	}
}

// ---------------------------------------------------------------------------
// One-shot worlds: the profiling entry point for the simulator itself.

// oneShotWorlds are fresh block-placed bgp-16k worlds that each run one
// program to completion and are dropped, as every pass of the repository
// benchmark's world workloads is: the 384-rank linear Ialltoall with 1 KiB
// blocks (wide-alltoall) and BENCH_scale.json's barrier + 64 KiB binomial
// broadcast at 1K, 4K and 16K ranks (scale-4k at 4K), and at 4K ranks on the
// sharded engine's 2 shards, the world of BENCH_scale.json's sharded point.
var oneShotWorlds = []struct {
	name   string
	ranks  int
	shards int // 0: the sequential engine
	prog   func(*mpi.Comm)
}{
	{"alltoall384", 384, 0, linearAlltoall1K},
	{"bcast1k", 1024, 0, barrierBcast},
	{"bcast4k", 4096, 0, barrierBcast},
	{"bcast16k", 16384, 0, barrierBcast},
	{"bcast4k-s2", 4096, 2, barrierBcast},
}

func linearAlltoall1K(c *mpi.Comm) {
	n, me := c.Size(), c.Rank()
	nbc.Run(c, nbc.Ialltoall(n, me, mpi.Virtual(n*1024), mpi.Virtual(n*1024), nbc.AlgoLinear))
}

func barrierBcast(c *mpi.Comm) {
	n, me := c.Size(), c.Rank()
	nbc.Run(c, nbc.Ibarrier(n, me))
	nbc.Run(c, nbc.Ibcast(n, me, 0, mpi.Virtual(64*1024), nbc.FanoutBinomial, 32*1024))
}

// runOneShotWorld builds a world of ranks on the given number of shards (0:
// sequential), runs prog on every rank and returns the events its engines
// fired and the coroutine resumes they took.
func runOneShotWorld(tb testing.TB, ranks, shards int, prog func(*mpi.Comm)) (events, resumes int64) {
	tb.Helper()
	plat, err := platform.ByName("bgp-16k")
	if err != nil {
		tb.Fatal(err)
	}
	var w *mpi.World
	if shards > 0 {
		w, err = plat.NewWorldPDES(ranks, 1, platform.Block, shards)
	} else {
		w, err = plat.Assemble(ranks, 1, platform.Block, "", 0)
	}
	if err != nil {
		tb.Fatal(err)
	}
	w.Start(prog)
	w.Run()
	return w.EventsFired(), w.Resumes()
}

// oneShotAllocCeiling and oneShotMallocCeiling are what
// TestOneShotWorldAllocBudget lets its three one-shot worlds allocate: 10 %
// over the 45.8 MiB and the 160.2 K objects they allocated when the ceilings
// were set (the all-to-all 27.9 MiB of them, 199 B per message). A world's
// first run allocates its live set once: schedules in one exactly sized op
// array of 32-byte entries, one per run of posts, protocol records from slab
// chunks that double up to 32 KiB (64-byte requests, 48-byte envelopes,
// transfers of at most 56 bytes), free lists chained through their records,
// lane entries from chunks that double up to 32 KiB and are never copied, each
// queue's first index sized for the world, and per rank a notice queue sized
// once for the requests its round leaves open; and per rank its process and
// coroutine, one handle pool holding its first handle, and no wait condition
// or name (DESIGN.md §3 "Pooling").
const (
	oneShotAllocCeiling  = 504 << 20 / 10 // 50.4 MiB
	oneShotMallocCeiling = 176_200
)

// TestOneShotWorldResumes pins the events the first two worlds of
// TestOneShotWorldAllocBudget fire and the coroutine resumes they take,
// exactly: no host moves either count. A blocking collective wait starts each
// next round inside its poll, so a rank is resumed once to start and once per
// collective, not once per round: 3 per rank for the 1K-rank barrier and
// broadcast. The all-to-all's single round posts its 766 requests from the
// rank's own context, where every 64 pending stops sync the rank, so it takes
// 19 per rank.
func TestOneShotWorldResumes(t *testing.T) {
	want := map[string][2]int64{"alltoall384": {742464, 7296}, "bcast1k": {101278, 3072}}
	for _, ow := range oneShotWorlds[:2] {
		events, resumes := runOneShotWorld(t, ow.ranks, ow.shards, ow.prog)
		if w := want[ow.name]; events != w[0] || resumes != w[1] {
			t.Errorf("%s: %d events and %d resumes, want %d and %d", ow.name, events, resumes, w[0], w[1])
		}
	}
}

// TestOneShotWorldAllocBudget runs the 384-rank linear Ialltoall world and
// the 1K- and 4K-rank barrier + broadcast worlds once each and fails if
// together they allocate more than oneShotAllocCeiling bytes or more than
// oneShotMallocCeiling objects. It logs what each world allocated, and for the
// all-to-all the bytes per message of its 384·383 = 147 072, beside the
// total.
func TestOneShotWorldAllocBudget(t *testing.T) {
	var bytes, mallocs uint64
	for _, ow := range oneShotWorlds[:3] {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runOneShotWorld(t, ow.ranks, ow.shards, ow.prog)
		runtime.ReadMemStats(&after)
		b, m := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		bytes, mallocs = bytes+b, mallocs+m
		per := ""
		if ow.name == "alltoall384" {
			per = fmt.Sprintf(", %.0f B per message", float64(b)/float64(ow.ranks*(ow.ranks-1)))
		}
		t.Logf("%s: %.1f MiB in %d allocations%s", ow.name, float64(b)/(1<<20), m, per)
	}
	worlds := oneShotWorlds[0].name + ", " + oneShotWorlds[1].name + " and " + oneShotWorlds[2].name
	if bytes > oneShotAllocCeiling {
		t.Errorf("one-shot %s worlds allocated %.1f MiB, the ceiling is %.1f MiB",
			worlds, float64(bytes)/(1<<20), float64(oneShotAllocCeiling)/(1<<20))
	}
	if mallocs > oneShotMallocCeiling {
		t.Errorf("one-shot %s worlds made %d allocations, the ceiling is %d", worlds, mallocs, oneShotMallocCeiling)
	}
	t.Logf("total: %.1f MiB in %d allocations (ceilings %.1f MiB and %d)",
		float64(bytes)/(1<<20), mallocs, float64(oneShotAllocCeiling)/(1<<20), oneShotMallocCeiling)
}

// BenchmarkOneShotWorld times world construction and one run, per event as
// well as per world; it is the target of `go test -run '^$' -bench
// OneShotWorld/alltoall384 -cpuprofile|-memprofile`. B/event and allocs/event
// count every byte and every object allocated, and B/rank and allocs/rank the
// same per rank of the world, beside -benchmem's per-world figures. gcs/world counts the collections a world took and gc-cpu-frac is
// the collector's share of the CPU time available meanwhile (runtime/metrics:
// GC CPU over GOMAXPROCS times wall time), so what a live set costs to trace
// shows beside what it costs to allocate.
func BenchmarkOneShotWorld(b *testing.B) {
	for _, ow := range oneShotWorlds {
		b.Run(ow.name, func(b *testing.B) {
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			cpu0, cpu1 := gcCPU(), [2]float64{}
			runtime.ReadMemStats(&m0)
			var events, resumes int64
			for i := 0; i < b.N; i++ {
				e, r := runOneShotWorld(b, ow.ranks, ow.shards, ow.prog)
				events, resumes = events+e, resumes+r
			}
			runtime.ReadMemStats(&m1)
			cpu1 = gcCPU()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(events), "B/event")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(events), "allocs/event")
			b.ReportMetric(float64(resumes)/float64(events), "resumes/event")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*ow.ranks), "allocs/rank")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N*ow.ranks), "B/rank")
			b.ReportMetric(float64(m1.NumGC-m0.NumGC)/float64(b.N), "gcs/world")
			if total := cpu1[1] - cpu0[1]; total > 0 {
				b.ReportMetric((cpu1[0]-cpu0[0])/total, "gc-cpu-frac")
			}
		})
	}
}

// gcCPU reads the runtime's CPU-time estimates: the collector's, and all
// that GOMAXPROCS made available, in seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
