package mpi

import (
	"runtime"
	"testing"

	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

// forkScaleFingerprint runs a light full-world program — noisy compute, an
// eager ring, a barrier — and condenses timing, event counts and what a
// recorder saw into floats for exact comparison. It deliberately never
// touches rank RNGs: forcing 4096 lazy RNGs into existence would swamp the
// per-fork cost this file pins.
func forkScaleFingerprint(eng *sim.Engine, w *World) []float64 {
	n := len(w.ranks)
	rec := obs.NewRecorder(n)
	w.Observe(rec)
	w.Start(func(c *Comm) {
		me := c.Rank()
		c.Compute(1e-5)
		c.Send((me+1)%n, 3, Virtual(512))
		c.Recv((me+n-1)%n, 3, Virtual(512))
		c.Barrier()
	})
	eng.Run()
	return recorded(eng, w, rec)
}

// recorded condenses a finished run into floats: virtual time, events fired,
// transfers, the recorder's bytes on the wire, and per rank its recorded time
// in compute and in MPI and its progress calls.
func recorded(eng *sim.Engine, w *World, rec *obs.Recorder) []float64 {
	m := rec.Metrics()
	fp := []float64{eng.Now(), float64(eng.EventsFired), float64(w.shards[0].net.Transfers)}
	for _, nic := range m.NIC {
		fp = append(fp, float64(nic.TxBytes), float64(nic.RxBytes))
	}
	for _, rm := range m.Ranks {
		fp = append(fp, rm.Compute, rm.MPI, float64(rm.ProgressCalls))
	}
	return fp
}

// TestFork4KQuiescentReplay pins snapshot/fork at scale: a quiescent
// 4096-rank world forks, both forks replay an identical continuation
// byte-identically (parent mutation in between must not bleed through),
// and the marginal heap cost of a fork stays proportional to the live
// state — ~1.5 KiB/rank for rank records, matcher state and cloned chaos
// streams, not the ~6 KiB/rank an eager deep copy of untouched lazy RNGs
// would add on top.
func TestFork4KQuiescentReplay(t *testing.T) {
	n := 4096
	if testing.Short() {
		n = 512
	}
	eng, w := forkTestWorld(t, n)
	forkScaleFingerprint(eng, w) // advance the parent to a lived-in quiescent state
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	e1, w1 := snap.Fork()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perRank := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(n)
	const forkBudgetBytesPerRank = 2048
	if perRank > forkBudgetBytesPerRank {
		t.Errorf("fork of a quiescent %d-rank world costs %.0f B/rank, budget is %d B/rank",
			n, perRank, forkBudgetBytesPerRank)
	}
	t.Logf("%d ranks: fork cost %.0f B/rank", n, perRank)

	a := forkScaleFingerprint(e1, w1)
	forkScaleFingerprint(eng, w) // mutate the parent between the forks
	e2, w2 := snap.Fork()
	b := forkScaleFingerprint(e2, w2)

	if len(a) != len(b) {
		t.Fatalf("fingerprint lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fork fingerprint slot %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0] <= snap.sim.Now() {
		t.Fatal("fork replay did not advance virtual time")
	}
}
