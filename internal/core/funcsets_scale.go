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

var (
	ibcastScalableSet     = ibcastDecl("ibcast-scalable", []int{0, nbc.FanoutBinomial, nbc.FanoutTorus}, []int{0, nbc.FanoutBinomial, nbc.FanoutTorus})
	iallgatherScalableSet = algoDecl("iallgather-scalable", []nbc.AllgatherAlgo{nbc.AllgatherRing, nbc.AllgatherLinear, nbc.AllgatherBruck}, nbc.IallgatherName, iallgatherSched)
	ibarrierSet           = &setDecl{name: "ibarrier", attrs: &AttributeSet{Attrs: []Attribute{{Name: "algorithm", Values: []int{BarrierDissemination, BarrierTree}}}}, fns: []fnDecl{
		{nbc.IbarrierName, []int{BarrierDissemination}, func(b *binding, _ []int) *nbc.Schedule { return nbc.Ibarrier(b.c.Size(), b.c.Rank()) }},
		{nbc.IbarrierTreeName, []int{BarrierTree}, func(b *binding, _ []int) *nbc.Schedule { return nbc.IbarrierTree(b.c.Size(), b.c.Rank()) }},
	}}
)

// IbcastScalableSet builds the scale-oriented Ibcast function set: the
// linear tree (one round, best at tiny communicators), the binomial tree
// (the default set's large-n winner), and the torus-aware hierarchical tree
// (node leaders relaying over single torus hops, shared-memory fanout
// within a node), each crossed with the paper's three segment sizes.
func IbcastScalableSet(c *mpi.Comm, root int, buf mpi.Buf) *FunctionSet {
	return &bind(c, buf, buf, root, ibcastScalableSet).fs
}

// IallgatherScalableSet extends the default Iallgather set with the Bruck
// dissemination algorithm: O(log n) rounds against the ring's O(n), the
// large-n winner for small blocks.
func IallgatherScalableSet(c *mpi.Comm, send, recv mpi.Buf) *FunctionSet {
	return &bind(c, send, recv, 0, iallgatherScalableSet).fs
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
	return &bind(c, mpi.Buf{}, mpi.Buf{}, 0, ibarrierSet).fs
}
