package bench

import (
	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
)

// Scale pins: the deterministic outcome of a barrier + broadcast workload on
// bgp-16k worlds of 1K/4K/16K ranks, committed in BENCH_scale.json.
// TestSimulatedPins and TestIdleWorldFootprint16K assert the file exactly
// (and rewrite it under -update); the repository benchmark's scale-4k
// workload checks its warm-up pass against the 4096-rank point.

// ScalePoint is one rank count's pinned outcome.
type ScalePoint struct {
	Ranks int `json:"ranks"`
	Nodes int `json:"nodes"`
	// Events is the deterministic event count of one workload run
	// (dissemination barrier + 64 KiB binomial broadcast).
	Events int64 `json:"events"`
	// VirtualSeconds is the workload's simulated completion time.
	VirtualSeconds float64 `json:"virtual_seconds"`
}

// IdleBudgetBytesPerRank is the hard per-rank memory budget for an idle
// world, independent of any committed baseline: a 16K-rank world must
// construct inside it on any machine. Measured cost is ~400 B/rank (rank
// records, world free lists, per-node NIC state amortized over the ranks
// sharing the node); the budget leaves ~2.5x headroom while still refusing
// any eager-initialization regression — pre-scale-work worlds cost
// ~5.5 KiB/rank (per-rank RNGs alone were 4.9 KiB).
const IdleBudgetBytesPerRank = 1024

// scaleProg is the pinned workload: a full-world barrier (matching
// pressure: log2(n) rounds, n messages each) followed by a binomial
// broadcast (tree latency + pipelining).
func scaleProg(c *mpi.Comm) {
	n, me := c.Size(), c.Rank()
	nbc.Run(c, nbc.Ibarrier(n, me))
	nbc.Run(c, nbc.Ibcast(n, me, 0, mpi.Virtual(64*1024), nbc.FanoutBinomial, 32*1024))
}
