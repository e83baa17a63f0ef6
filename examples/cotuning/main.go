// cotuning: the paper's future-work extension, implemented — one ADCL timer
// co-tuning several operations inside one code region.
//
// A time step of a made-up solver performs an all-to-all (transpose), some
// computation, and an allreduce (convergence check). Both operations are
// persistent ADCL requests attached to a single timer that brackets the
// whole step. The requests have separate selectors; the timer feeds
// measurements to one still-learning selector at a time (sequential
// co-tuning), so one operation's exploration never confounds the other's.
//
// Run with: go run ./examples/cotuning
package main

import (
	"fmt"
	"log"

	"nbctune/internal/core"
	"nbctune/internal/mpi"
	"nbctune/internal/platform"
)

func main() {
	plat, err := platform.ByName("crill")
	if err != nil {
		log.Fatal(err)
	}
	const (
		np    = 16
		iters = 40
	)
	eng, world, err := plat.NewWorld(np, 11)
	if err != nil {
		log.Fatal(err)
	}
	allreduce, err := core.OpByName("iallreduce")
	if err != nil {
		log.Fatal(err)
	}

	world.Start(func(c *mpi.Comm) {
		transpose := core.IalltoallSet(c, mpi.Virtual(np*64*1024), mpi.Virtual(np*64*1024), false)
		residual, err := allreduce.Set(c, 8*1024, nil)
		if err != nil {
			log.Fatal(err)
		}
		reqT := core.MustRequest(transpose, core.NewBruteForce(len(transpose.Fns), 3), c.Now)
		reqR := core.MustRequest(residual, core.NewBruteForce(len(residual.Fns), 3), c.Now)
		timer := core.MustTimer(c.Now, reqT, reqR)

		for it := 0; it < iters; it++ {
			timer.Start()

			reqT.Init() // start the transpose
			for k := 0; k < 4; k++ {
				c.Compute(2e-3) // overlap the stencil update
				reqT.Progress()
			}
			reqT.Wait()

			reqR.Init()     // start the convergence allreduce
			c.Compute(1e-3) // overlap the local residual computation
			reqR.Progress()
			reqR.Wait()

			core.StopMaybeSynced(c, timer, reqT, reqR)

			if c.Rank() == 0 && it == iters-1 {
				fmt.Printf("after %d steps:\n", iters)
				for _, rq := range []*core.Request{reqT, reqR} {
					if w := rq.Winner(); w != nil {
						fmt.Printf("  %-12s -> %-32s (decided at t=%.3fs, %d measurements)\n",
							rq.FunctionSet().Name, w.Name, rq.DecidedAt(), rq.Selector().Evals())
					} else {
						fmt.Printf("  %-12s -> still learning\n", rq.FunctionSet().Name)
					}
				}
			}
		}
	})
	eng.Run()
	fmt.Println("co-tuning finished: the timer tuned both operations sequentially inside one region")
}
