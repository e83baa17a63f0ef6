package nbc

// Persistent-request coverage for the pooled execution state: the same
// Handle record must be re-armed by every Start in a steady-state loop, must
// never leak one iteration's state into the next (clean fabric and os-jitter
// chaos), and the whole iteration — Start through Wait, across mpi requests,
// envelopes, matching, and the sim engine — must allocate nothing once warm.

import (
	"bytes"
	"testing"

	"nbctune/internal/chaos"
	"nbctune/internal/chaos/profiles"
	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

// TestPersistentIbcastReuse re-arms one Ibcast schedule 50 times per rank
// and verifies per-iteration payloads end-to-end. The handle-pool contract
// is checked directly: with one collective outstanding at a time, every
// Start must return the same pooled record.
func TestPersistentIbcastReuse(t *testing.T) {
	const (
		n     = 6
		root  = 2
		size  = 48 * 1024
		iters = 50
	)
	for _, mode := range []string{"clean", "os-jitter"} {
		t.Run(mode, func(t *testing.T) {
			eng := sim.NewEngine(1)
			nodeOf := make([]int, n)
			for i := range nodeOf {
				nodeOf[i] = i
			}
			net, err := netmodel.New(eng, testParams(nil), nodeOf)
			if err != nil {
				t.Fatal(err)
			}
			opts := mpi.Options{Seed: 11}
			if mode != "clean" {
				prof, err := profiles.ByName(mode)
				if err != nil {
					t.Fatal(err)
				}
				in, err := chaos.NewInjector(*prof, 23, n, n)
				if err != nil {
					t.Fatal(err)
				}
				net.SetChaos(in)
			}
			w := mpi.NewWorld(eng, net, n, opts)
			errs := make(chan string, n*iters)
			w.Start(func(c *mpi.Comm) {
				me := c.Rank()
				buf := make([]byte, size)
				want := make([]byte, size)
				sched := Ibcast(n, me, root, mpi.Bytes(buf), 2, 16*1024)
				var first *Handle
				for it := 0; it < iters; it++ {
					if me == root {
						confFill(buf, uint64(it))
					} else {
						for i := range buf {
							buf[i] = 0
						}
					}
					h := Start(c, sched)
					if first == nil {
						first = h
					} else if h != first {
						errs <- "Start did not re-arm the pooled handle"
					}
					h.Wait()
					confFill(want, uint64(it))
					if !bytes.Equal(buf, want) {
						errs <- "iteration payload diverged (state leaked across re-arms)"
					}
				}
			})
			eng.Run()
			close(errs)
			for msg := range errs {
				t.Fatal(msg)
			}
		})
	}
}

// persistentLoop starts an n-rank world in which every rank runs the schedule
// mk builds for it once per released iteration, parking on a gate condition in
// between. It returns the engine and step, which releases one iteration and
// drives the engine until the world is quiescent again.
func persistentLoop(t *testing.T, n int, mk func(c *mpi.Comm) *Schedule) (*sim.Engine, func()) {
	eng := sim.NewEngine(1)
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	net, err := netmodel.New(eng, testParams(nil), nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(eng, net, n, mpi.Options{Seed: 3})
	gate := sim.NewCond(eng)
	released := 0
	w.Start(func(c *mpi.Comm) {
		sched := mk(c)
		it := 0
		for {
			for released <= it {
				gate.Wait(c.RankState().Proc())
			}
			Run(c, sched)
			it++
		}
	})
	deadline := 0.0
	return eng, func() {
		released++
		gate.Broadcast()
		// Generous per-iteration horizon; RunUntil returns as soon as the
		// event queue drains with every rank parked on the gate again.
		deadline += 1.0
		eng.RunUntil(deadline)
	}
}

// TestPersistentIbcastSteadyStateAllocs pins the acceptance criterion: a
// steady-state persistent Ibcast iteration performs zero allocations.
func TestPersistentIbcastSteadyStateAllocs(t *testing.T) {
	const n = 4
	requireSteadyStateAllocFree(t, n, func(c *mpi.Comm) *Schedule {
		return Ibcast(n, c.Rank(), 0, mpi.Virtual(32*1024), 2, 8*1024)
	})
}

// TestPersistentPutAlltoallSteadyStateAllocs is the same pin for a put-based
// schedule, which waits on its request handles and then, through a predicate
// (Comm.WaitFor), on the window's put counter — every round.
func TestPersistentPutAlltoallSteadyStateAllocs(t *testing.T) {
	const n = 4
	requireSteadyStateAllocFree(t, n, func(c *mpi.Comm) *Schedule {
		send, recv := mpi.Virtual(n*16*1024), mpi.Virtual(n*16*1024)
		return IalltoallPairwisePut(n, c.Rank(), send, recv, IalltoallWindows(c, recv))
	})
}

func requireSteadyStateAllocFree(t *testing.T, n int, mk func(c *mpi.Comm) *Schedule) {
	_, step := persistentLoop(t, n, mk)
	for i := 0; i < 50; i++ {
		step() // warm every pool, free list, and reused slice
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state persistent iteration: %v allocs, want 0", allocs)
	}
}

// TestPersistentIbcastResumesPerIteration is the hand-off budget, which no
// host can move: a rank's coroutine is resumed when a wait of its ends, not
// once for every CPU charge and notice on the way there, and a collective's
// rounds start inside the wait's poll instead of resuming it once per round.
// 16 ranks, 4 segments down a binary tree: one resume per rank to leave the
// gate and one when its Wait ends — exactly 32 for the iteration's 447
// events. When every charge parked the coroutine the same 447 events took
// 387 resumes.
func TestPersistentIbcastResumesPerIteration(t *testing.T) {
	const n = 16
	eng, step := persistentLoop(t, n, func(c *mpi.Comm) *Schedule {
		return Ibcast(n, c.Rank(), 0, mpi.Virtual(32*1024), 2, 8*1024)
	})
	step()
	before, fired := eng.Resumes, eng.EventsFired
	const iters = 10
	for i := 0; i < iters; i++ {
		step()
	}
	perIter := float64(eng.Resumes-before) / iters
	t.Logf("%.1f resumes and %.1f events per iteration", perIter, float64(eng.EventsFired-fired)/iters)
	if perIter != 2*n {
		t.Fatalf("%.1f resumes per persistent Ibcast iteration at %d ranks, want %d: two per rank", perIter, n, 2*n)
	}
}
