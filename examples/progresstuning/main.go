// progresstuning: demonstrates the paper's central observation about the
// progress problem (§III-C, Figs 6-7): how often the application calls into
// the communication library decides both how much overlap a non-blocking
// collective achieves and WHICH algorithm is best.
//
// The example runs the overlap micro-benchmark for each Ialltoall algorithm
// across a range of progress-call counts on the simulated crill cluster and
// prints the resulting matrix: with a single progress call the structured
// pairwise exchange wins, with a handful the linear algorithm overlaps
// fully, and with thousands the progress overhead itself starts to hurt.
//
// Run with: go run ./examples/progresstuning
package main

import (
	"fmt"
	"log"

	"nbctune/internal/bench"
	"nbctune/internal/platform"
)

func main() {
	plat, err := platform.ByName("crill")
	if err != nil {
		log.Fatal(err)
	}
	progressCounts := []int{1, 2, 5, 10, 100, 1000}

	fmt.Println("Ialltoall on crill, 32 ranks, 128KB per pair, 100ms compute per iteration")
	fmt.Printf("%-10s", "progress")
	names := bench.MicroSpec{Platform: plat, Procs: 2, MsgSize: 1, Op: bench.OpIalltoall}.FunctionNames()
	for _, n := range names {
		fmt.Printf("  %-24s", n)
	}
	fmt.Println("  best")

	specs := make([]bench.MicroSpec, len(progressCounts))
	for i, pc := range progressCounts {
		specs[i] = bench.MicroSpec{
			Platform: plat, Procs: 32, MsgSize: 128 * 1024, Op: bench.OpIalltoall,
			ComputePerIter: 0.1, Iterations: 15, ProgressCalls: pc, Seed: 9,
		}
	}
	// Every (progress count, algorithm) cell is an independent simulation:
	// run them all on the experiment runner's worker pool.
	matrix, err := bench.FixedMatrix(specs, 0, bench.RunOptions{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, rs := range matrix {
		best := 0
		fmt.Printf("%-10d", progressCounts[i])
		for j, r := range rs {
			if r.Total < rs[best].Total {
				best = j
			}
			fmt.Printf("  %-24s", fmt.Sprintf("%.2f ms/iter", r.PerIter*1000))
		}
		fmt.Printf("  %s\n", rs[best].Impl)
	}

	fmt.Println()
	fmt.Println("Auto-tuning picks the right algorithm for each regime:")
	for _, pc := range []int{1, 10} {
		spec := bench.MicroSpec{
			Platform: plat, Procs: 32, MsgSize: 128 * 1024, Op: bench.OpIalltoall,
			ComputePerIter: 0.1, Iterations: 20, ProgressCalls: pc, Seed: 9,
		}
		r, err := bench.RunADCL(spec, "brute-force")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4d progress call(s): ADCL selected %s after %d measurements\n",
			pc, r.Winner, r.Evals)
	}
}
