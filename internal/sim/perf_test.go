package sim

import (
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
