package bench

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/platform"
)

// whaleIbcast is a whale-tcp Ibcast spec of 8 ranks and 2 MiB, whose world
// carves about 0.4 MiB of record chunks, most of them envelopes.
func whaleIbcast(t *testing.T) MicroSpec {
	t.Helper()
	whale, err := platform.ByName("whale-tcp")
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(t)
	spec.Platform, spec.Op, spec.Procs, spec.MsgSize = whale, OpIbcast, 8, 2<<20
	return spec
}

// TestRecycledRecordsKeepResults: a world that draws its record chunks from
// the pools earlier worlds released into (mpi.World.Release) runs as a world
// that carves fresh ones does, for far fewer bytes. A fixed Ibcast run, a
// crill Ialltoall run that leaves chunks of other lengths written over in the
// pools, and the Ibcast run again give equal results. With the collector
// paused, so that the pools keep what they are given, the repeat allocates at
// least 40 % less than the first run, which carves every chunk: a run before
// both compiles the schedules, and two collections empty the pools.
func TestRecycledRecordsKeepResults(t *testing.T) {
	bcast := whaleIbcast(t)
	alltoall := smallSpec(t)
	alltoall.Procs, alltoall.MsgSize = 16, 128<<10
	run := func(spec MicroSpec, fn int) (MicroResult, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := RunFixed(spec, fn)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return r, after.TotalAlloc - before.TotalAlloc
	}
	run(bcast, 1)
	runtime.GC()
	runtime.GC() // the first moves the pools' chunks aside, the second drops them
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first, carved := run(bcast, 1)
	run(alltoall, 0)
	again, recycled := run(bcast, 1)
	if !reflect.DeepEqual(first, again) {
		t.Errorf("the Ibcast run on recycled records gave\n%+v\nwhere on fresh ones it gave\n%+v", again, first)
	}
	if recycled > carved*6/10 {
		t.Errorf("the Ibcast run allocated %d B on fresh records and %d B on recycled ones, want at least 40 %% less", carved, recycled)
	}
	t.Logf("%s fixed=1: %d B on fresh records, %d B on recycled ones", bcast, carved, recycled)
}

// TestReleasedWorldIsInert: a released world keeps no rank, so a program
// started on it never runs, its run fires no event and its clock stays where
// the last run left it; releasing it again changes nothing.
func TestReleasedWorldIsInert(t *testing.T) {
	w, err := whaleIbcast(t).World()
	if err != nil {
		t.Fatal(err)
	}
	w.Start(func(c *mpi.Comm) { c.Barrier() })
	w.Run()
	now, events := w.Now(), w.EventsFired()
	w.Release()
	ran := false
	w.Start(func(c *mpi.Comm) { ran = true })
	w.Run()
	w.Release()
	if ran || w.Now() != now || w.EventsFired() != events {
		t.Errorf("a released world ran a program (%v), moved its clock from %g to %g or fired %d events",
			ran, now, w.Now(), w.EventsFired()-events)
	}
}

// TestRecycledRecordsAcrossWorkers: runner workers release worlds of
// different shapes into one set of pools and draw from it concurrently, and
// the sweep is the one a single worker gives.
func TestRecycledRecordsAcrossWorkers(t *testing.T) {
	bcast := whaleIbcast(t)
	bcast.MsgSize = 64 << 10
	specs := []MicroSpec{bcast, smallSpec(t)}
	sels := []string{"brute-force"}
	seq, err := VerificationSweepOpts(specs, sels, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := VerificationSweepOpts(specs, sels, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := indented(t, seq.Summary()), indented(t, par.Summary()); s != p {
		t.Fatalf("two workers gave\n%s\nwhere one gave\n%s", p, s)
	}
}
