package bench

import (
	"testing"

	"nbctune/internal/fft"
	"nbctune/internal/mpi"
	"nbctune/internal/platform"
	"nbctune/internal/sim"
)

// engineOf assembles a world for a spec's machine and returns its
// engine beside it, so a test can read the engine's counters after a run.
func engineOf(t *testing.T, p platform.Platform, procs int, seed int64, pl platform.Placement, chaos string, chaosSeed int64) (*sim.Engine, *mpi.World) {
	t.Helper()
	w, err := p.Assemble(procs, seed, pl, chaos, chaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	return w.Engine(), w
}

// TestDeliveryLanesKeepTheQueueShallow pins what netmodel's delivery lanes
// buy. On a clean network every delivery waits in the lane of its receiving
// channel, none falls back to an ordinary event, and the event heap holds one
// entry per busy lane, not one per message in flight: the whale-tcp np 8 /
// 2 MiB fixed Ibcast queues every iteration's 32 KiB eager segments on the
// root's NIC (the parent of this test peaked above 2 800 queued events there),
// a 64-rank crill FFT transposes over all 16 nodes, four ranks each, through
// both rx channels and shared memory. Under the
// congested profile, jitter reorders a channel's arrivals and lanes do fall
// back; TestChaos* hold the timing of those runs.
func TestDeliveryLanesKeepTheQueueShallow(t *testing.T) {
	var ibcast MicroSpec
	for _, s := range VerificationScenarios(true) {
		if s.Platform.Name == "whale-tcp" && s.Procs == 8 && s.Op == OpIbcast && s.MsgSize == 2<<20 && s.ProgressCalls == 1 {
			ibcast = s
		}
	}
	if ibcast.Procs == 0 {
		t.Fatal("the fast verification grid has no whale-tcp np 8 / 2 MiB Ibcast with one progress call")
	}
	var transpose FFTSpec
	for _, s := range FFTScenarios(true) {
		if s.Platform.Name == "crill" && s.Procs == 64 && s.Pattern == fft.Pipelined {
			transpose = s
		}
	}
	if transpose.Procs == 0 {
		t.Fatal("the fast FFT grid has no crill np 64 pipelined transpose")
	}

	runIbcast := func(chaos string) *sim.Engine {
		s := ibcast
		s.Chaos, s.ChaosSeed = chaos, 5
		eng, w := engineOf(t, s.Platform, s.Procs, s.Seed, s.Placement, s.Chaos, s.ChaosSeed)
		if _, _, err := runLoop(s, w, "", pinned(0)); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng, w := engineOf(t, transpose.Platform, transpose.Procs, transpose.Seed, transpose.Placement, "", 0)
	errs := make([]error, transpose.Procs)
	w.Start(func(c *mpi.Comm) {
		pl, err := fft.NewPlan(c, fft.Config{N: transpose.N, Pattern: transpose.Pattern, Flavor: fft.FlavorNBC,
			ProgressPerTile: transpose.ProgressPerTile, Virtual: true, FlopRate: transpose.Platform.FlopRate})
		for it := 0; it < 4 && err == nil; it++ {
			err = pl.Forward()
		}
		errs[c.Rank()] = err
	})
	w.Run()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// A wake ticket per rank, a head per busy lane (at most four per node) and
	// the odd plain event: four entries per rank is a loose bound.
	for _, c := range []struct {
		name  string
		eng   *sim.Engine
		procs int
	}{
		{"whale-tcp np 8 / 2 MiB fixed Ibcast", runIbcast(""), ibcast.Procs},
		{"crill np 64 FFT transpose", eng, transpose.Procs},
	} {
		t.Logf("%s: %d events, heap peak %d, %d lane fallbacks", c.name, c.eng.EventsFired, c.eng.QueuePeak, c.eng.LaneFallbacks)
		if c.eng.LaneFallbacks != 0 {
			t.Errorf("%s: %d deliveries fell back to ordinary events on a clean network", c.name, c.eng.LaneFallbacks)
		}
		if c.eng.QueuePeak > 4*c.procs {
			t.Errorf("%s: the event heap peaked at %d entries, more than %d", c.name, c.eng.QueuePeak, 4*c.procs)
		}
	}
	noisy := runIbcast("congested")
	t.Logf("congested whale-tcp Ibcast: %d events, %d lane fallbacks", noisy.EventsFired, noisy.LaneFallbacks)
	if noisy.LaneFallbacks == 0 {
		t.Error("congested whale-tcp Ibcast: no delivery fell back, though jitter reorders arrivals")
	}
}
