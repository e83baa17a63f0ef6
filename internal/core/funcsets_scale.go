package core

import (
	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
)

// Scalable function sets: the paper tunes at ≤128 processes, where the
// default sets' O(n)-message algorithms are competitive. These sets add the
// O(log n) and topology-aware variants (nbc/scale.go) so the same tuning
// machinery can select at 4K+ simulated ranks — the regime where the winner
// flips away from the small-scale choice (EXPERIMENTS.md E15).

// IbcastScalableSet builds the scale-oriented Ibcast function set: the
// linear tree (one round, best at tiny communicators), the binomial tree
// (the default set's large-n winner), and the torus-aware hierarchical tree
// (node leaders relaying over single torus hops, shared-memory fanout
// within a node), each crossed with the paper's three segment sizes.
func IbcastScalableSet(c *mpi.Comm, root int, buf mpi.Buf) *FunctionSet {
	n, me := c.Size(), c.Rank()
	segs := nbc.DefaultSegSizes
	fs := &FunctionSet{
		Name: "ibcast-scalable",
		AttrSet: &AttributeSet{Attrs: []Attribute{
			{Name: "fanout", Values: []int{0, nbc.FanoutBinomial, nbc.FanoutTorus}},
			{Name: "segsize", Values: append([]int(nil), segs...)},
		}},
	}
	for _, f := range []int{0, nbc.FanoutBinomial} {
		for _, s := range segs {
			fs.Fns = append(fs.Fns, ibcastFn(c, n, me, root, buf, f, s))
		}
	}
	for _, s := range segs {
		fs.Fns = append(fs.Fns, schedFn(c, nbc.IbcastName(nbc.FanoutTorus, s), func() *nbc.Schedule {
			return nbc.IbcastTorus(c, root, buf, s)
		}, nbc.FanoutTorus, s))
	}
	return fs
}

// IallgatherScalableSet extends the default Iallgather set with the Bruck
// dissemination algorithm: O(log n) rounds against the ring's O(n), the
// large-n winner for small blocks.
func IallgatherScalableSet(c *mpi.Comm, send, recv mpi.Buf) *FunctionSet {
	return iallgatherSet(c, "iallgather-scalable", send, recv, nbc.AllgatherRing, nbc.AllgatherLinear, nbc.AllgatherBruck)
}

// Ibarrier algorithm attribute values.
const (
	BarrierDissemination = 0
	BarrierTree          = 1
)

// IbarrierSet builds a function set over the two Ibarrier algorithms:
// dissemination (log2 n rounds, log2 n distinct partners per rank) and the
// binomial gather/release tree (same depth, O(1) partners per rank — fewer
// total messages and matches, which is what scales).
func IbarrierSet(c *mpi.Comm) *FunctionSet {
	n, me := c.Size(), c.Rank()
	return &FunctionSet{
		Name: "ibarrier",
		AttrSet: &AttributeSet{Attrs: []Attribute{
			{Name: "algorithm", Values: []int{BarrierDissemination, BarrierTree}},
		}},
		Fns: []*Function{
			schedFn(c, nbc.IbarrierName, func() *nbc.Schedule { return nbc.Ibarrier(n, me) }, BarrierDissemination),
			schedFn(c, nbc.IbarrierTreeName, func() *nbc.Schedule { return nbc.IbarrierTree(n, me) }, BarrierTree),
		},
	}
}
