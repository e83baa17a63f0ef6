package sim

import (
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkEngineThroughput is a mixed hot-path workload of pure timer events
// plus sleeping processes, the two event shapes every simulated MPI rank
// drives. It reports events/sec and allocs/event for measuring while you
// work; the gated number for the same workload is the repository
// benchmark's sim.events_per_s.bare (perf/README.md).
func BenchmarkEngineThroughput(b *testing.B) {
	const procs = 8
	e := NewEngine(1)
	for pi := 0; pi < procs; pi++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1e-6)
			}
		})
	}
	// Interleaved pure-callback events: two timer events per proc wake.
	for i := 0; i < 2*procs*b.N; i++ {
		e.At(float64(i)*0.5e-6, func() {})
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if events := float64(e.EventsFired); events > 0 {
		b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
	}
}

// BenchmarkEventQueue is the event heap at a held depth: depth
// self-rescheduling timer chains keep that many events queued while b.N of
// them fire, the shape of the repository benchmark's sim.heap_ns_per_event
// probe. The depths bracket the queues the workloads hold: about 10 on the
// verification sweep, 31 in the FFT kernel, 607 in the 384-rank all-to-all,
// 3 610 in the 4K-rank world and 14 838 at 16K ranks. ns/event counts the
// events the chains fire as they drain, like the probe.
func BenchmarkEventQueue(b *testing.B) {
	for _, bc := range []struct {
		name  string
		depth int
	}{{"d8", 8}, {"d32", 32}, {"d1k", 1 << 10}, {"d64k", 1 << 16}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]float64, 4096)
			for i := range delays {
				delays[i] = 1e-6 * (0.5 + rng.Float64())
			}
			e := NewEngine(1)
			left := b.N
			var hold func(any)
			hold = func(arg any) {
				if left > 0 {
					left--
					next := arg.(*int)
					*next++
					e.AtCall(delays[*next&4095], hold, next)
				}
			}
			for i := 0; i < bc.depth; i++ {
				next := i * 7
				e.AtCall(delays[i&4095], hold, &next)
			}
			b.ResetTimer()
			e.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.EventsFired), "ns/event")
		})
	}
}
