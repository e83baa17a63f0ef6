// customfunctions: the low-level ADCL interface. Applications can register
// their own implementations of a communication pattern as a function set and
// reuse ADCL's runtime selection, statistical filtering, and historic
// learning — without the pattern being a built-in collective.
//
// Here a 2D halo exchange (the Cartesian neighborhood communication ADCL was
// originally built for) is implemented three ways — blocking sendrecv
// ordered by dimension, all non-blocking with a single waitall, and
// pairwise-ordered — and tuned at runtime. The tuned winner is then stored
// in a history file (a knowledge-base snapshot) so a later run skips the learning phase entirely.
//
// Run with: go run ./examples/customfunctions
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"nbctune/internal/core"
	"nbctune/internal/kb"
	"nbctune/internal/mpi"
	"nbctune/internal/platform"
)

const (
	gridW, gridH = 4, 4 // 16 ranks in a 4x4 periodic grid
	haloBytes    = 32 * 1024
	iters        = 30
)

// neighbors returns the four neighbor ranks of rank r in the periodic grid.
func neighbors(r int) (left, right, up, down int) {
	x, y := r%gridW, r/gridW
	left = y*gridW + (x-1+gridW)%gridW
	right = y*gridW + (x+1)%gridW
	up = ((y-1+gridH)%gridH)*gridW + x
	down = ((y+1)%gridH)*gridW + x
	return
}

// haloSet builds a user-defined function set with three halo-exchange
// implementations.
func haloSet(c *mpi.Comm) *core.FunctionSet {
	left, right, up, down := neighbors(c.Rank())
	const tag = 7
	halo := mpi.Virtual(haloBytes)

	blockingByDim := core.CustomFunction("blocking-by-dimension", []int{0}, func() core.Started {
		c.Sendrecv(right, tag, halo, left, tag, halo)
		c.Sendrecv(left, tag, halo, right, tag, halo)
		c.Sendrecv(down, tag, halo, up, tag, halo)
		c.Sendrecv(up, tag, halo, down, tag, halo)
		return nil
	})
	allNonBlocking := core.CustomFunction("isend-irecv-waitall", []int{1}, func() core.Started {
		var reqs []*mpi.Request
		for _, src := range []int{left, right, up, down} {
			reqs = append(reqs, c.Irecv(src, tag, halo))
		}
		for _, dst := range []int{left, right, up, down} {
			reqs = append(reqs, c.Isend(dst, tag, halo))
		}
		return &waitallOp{c: c, reqs: reqs}
	})
	orderedPairs := core.CustomFunction("ordered-pairwise", []int{2}, func() core.Started {
		c.Sendrecv(right, tag, halo, left, tag, halo)
		c.Sendrecv(down, tag, halo, up, tag, halo)
		c.Sendrecv(left, tag, halo, right, tag, halo)
		c.Sendrecv(up, tag, halo, down, tag, halo)
		return nil
	})

	fs, err := core.NewFunctionSet("halo2d",
		&core.AttributeSet{Attrs: []core.Attribute{{Name: "strategy", Values: []int{0, 1, 2}}}},
		blockingByDim, allNonBlocking, orderedPairs)
	if err != nil {
		log.Fatal(err)
	}
	return fs
}

// waitallOp adapts a set of point-to-point requests to ADCL's Started
// interface.
type waitallOp struct {
	c    *mpi.Comm
	reqs []*mpi.Request
}

func (w *waitallOp) Progress() bool { return w.c.Test(w.reqs...) }
func (w *waitallOp) Wait()          { w.c.Wait(w.reqs...) }

func runOnce(histPath string) (winner string, evals int) {
	plat, err := platform.ByName("whale")
	if err != nil {
		log.Fatal(err)
	}
	eng, world, err := plat.NewWorld(gridW*gridH, 3)
	if err != nil {
		log.Fatal(err)
	}
	hist, err := kb.Open(kb.StoreOptions{SnapshotPath: histPath})
	if err != nil {
		log.Fatal(err)
	}
	key := core.HistoryKey("halo2d", plat.Name, gridW*gridH, haloBytes)

	world.Start(func(c *mpi.Comm) {
		fs := haloSet(c)
		sel, hit := core.SelectorWithHistory(hist, key, "", fs, core.NewBruteForce(len(fs.Fns), 3))
		if c.Rank() == 0 && hit {
			fmt.Println("  history hit: skipping the learning phase")
		}
		req := core.MustRequest(fs, sel, c.Now)
		timer := core.MustTimer(c.Now, req)
		for it := 0; it < iters; it++ {
			timer.Start()
			req.Init()
			c.Compute(2e-3)
			req.Progress()
			req.Wait()
			core.StopMaybeSynced(c, timer, req)
		}
		if c.Rank() == 0 {
			winner = req.Winner().Name
			evals = req.Selector().Evals()
		}
	})
	eng.Run()

	hist.Put(kb.Record{Key: key, Winner: winner, Evals: evals})
	if err := hist.Flush(false); err != nil {
		log.Fatal(err)
	}
	return winner, evals
}

func main() {
	dir, err := os.MkdirTemp("", "adcl-history")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	histPath := filepath.Join(dir, "history.json")

	fmt.Println("first run (cold, learns at runtime):")
	w1, e1 := runOnce(histPath)
	fmt.Printf("  winner=%s after %d measurements\n", w1, e1)

	fmt.Println("second run (warm, historic learning):")
	w2, e2 := runOnce(histPath)
	fmt.Printf("  winner=%s after %d measurements\n", w2, e2)

	if w1 != w2 || e2 != 0 {
		log.Fatalf("historic learning failed: %s/%d vs %s/%d", w1, e1, w2, e2)
	}
}
