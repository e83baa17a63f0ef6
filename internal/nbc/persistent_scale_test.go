package nbc

// The steady-state zero-allocation contract at scale: the 4-rank gate test
// in persistent_test.go proves the pools work, this one proves they still
// work when the world is 4096 ranks — per-rank lazy state, handle pools,
// matcher maps, and the engine's free lists must all reach a fixed point
// instead of growing with the iteration count.

import (
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

// TestPersistentIbcast4KSteadyStateAllocs re-arms a binomial 64 KiB Ibcast
// on a 4096-rank flat world and requires zero allocations per warm
// iteration, end to end: Start through quiescence across ~8K messages and
// 12 tree rounds. Rank programs park on a gate condition between
// iterations; each measured run releases one iteration and drives the
// engine until every rank is parked again.
func TestPersistentIbcast4KSteadyStateAllocs(t *testing.T) {
	n := 4096
	if testing.Short() {
		n = 512
	}
	eng := sim.NewEngine(1)
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	net, err := netmodel.New(eng, testParams(nil), nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld([]*netmodel.Network{net}, nil, n, mpi.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gate := sim.NewCond(eng)
	released := 0
	w.Start(func(c *mpi.Comm) {
		me := c.Rank()
		sched := Ibcast(n, me, 0, mpi.Virtual(64*1024), FanoutBinomial, 32*1024)
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
	step := func() {
		released++
		gate.Broadcast()
		deadline += 1.0
		eng.RunUntil(deadline)
	}
	// Warm-up fills every pool the world will ever need for this workload;
	// the fixed point is reached within the first couple of iterations, the
	// rest is margin.
	for i := 0; i < 5; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
		t.Fatalf("steady-state persistent Ibcast at %d ranks: %v allocs/iter, want 0", n, allocs)
	}
}
