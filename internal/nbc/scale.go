package nbc

import (
	"math/bits"
	"sort"

	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
)

// Scalable algorithm variants. The paper tunes at ≤128 ranks, where linear
// and ring algorithms are competitive; at 4K+ ranks the O(n) message counts
// and O(n) round counts dominate and the O(log n) variants below open a
// selection regime the paper never measured (Wickramasinghe & Lumsdaine's
// survey calls algorithm choice at scale the first-order problem; Yu et al.'s
// NIC-offload work motivates why tree shape dominates). The torus broadcast
// additionally uses the shared netmodel.Topo table so tree edges are single
// torus hops — on a BlueGene/P-style machine a topology-oblivious binomial
// tree pays the full Manhattan distance on most edges.

// IallgatherBruck builds the Bruck (dissemination) allgather: ceil(log2 n)
// rounds, round k exchanging min(2^k, n-2^k) already-gathered blocks with
// ranks at distance 2^k. O(log n) messages per rank versus the ring's O(n)
// rounds and the linear algorithm's O(n) messages — the large-n winner for
// small blocks.
func IallgatherBruck(n, me int, send, recv mpi.Buf) *Schedule {
	bs := send.Len()
	phases := bits.Len(uint(n - 1))
	b := newBuilder(IallgatherName(AllgatherBruck), send, 2*phases+2, phases+2)
	// tmp holds blocks in rotated order: tmp[i] = block of rank (me+i)%n.
	tmp := staging(send, n*bs)
	tref := b.buf(tmp)
	b.local(bs, func() { mpi.Copy(block(tmp, 0, bs), send) })
	b.end()
	if n == 1 {
		b.local(bs, func() { mpi.Copy(block(recv, me, bs), block(tmp, 0, bs)) })
		return b.done()
	}
	phase := 0
	for pow := 1; pow < n; pow *= 2 {
		cnt := pow
		if n-pow < cnt {
			cnt = n - pow
		}
		to := (me - pow + n) % n
		from := (me + pow) % n
		// Blocks 0..cnt-1 are contiguous in tmp, as is the receive region
		// pow..pow+cnt-1, so no pack/unpack staging is needed (unlike the
		// Bruck alltoall, whose per-phase block sets are strided).
		b.add(postOne(OpRecv, phase, from, tref, pow*bs, cnt*bs))
		b.add(postOne(OpSend, phase, to, tref, 0, cnt*bs))
		b.end()
		phase++
	}
	// Inverse rotation into the caller's layout.
	b.local(n*bs, func() {
		for i := 0; i < n; i++ {
			mpi.Copy(block(recv, (me+i)%n, bs), block(tmp, i, bs))
		}
	})
	return b.done()
}

// IbarrierTree builds a binomial-tree barrier: gather completion up the tree,
// then release down it. 2·log2(n) critical-path latency like dissemination,
// but each rank exchanges only O(1) messages with its tree neighbors instead
// of log2(n) distinct partners — fewer total messages and matches, which is
// what matters once OMatch×queue length and NIC message gaps dominate at 4K+
// ranks.
func IbarrierTree(n, me int) *Schedule {
	if n == 1 {
		return &Schedule{Name: IbarrierTreeName}
	}
	parent, children := bcastTree(n, me, FanoutBinomial)
	ops := 2 * runCount(children, n)
	if parent >= 0 {
		ops += 2
	}
	b := newBuilder(IbarrierTreeName, mpi.Buf{}, ops, 4)
	one := b.buf(mpi.Virtual(1))
	// Up phase (tag offset 0): leaves report first; an inner node reports
	// once all its children have.
	b.fanOut(OpRecv, 0, children, n, one, 0, 1)
	b.end()
	if parent >= 0 {
		b.add(postOne(OpSend, 0, parent, one, 0, 1))
		b.end()
		b.add(postOne(OpRecv, 1, parent, one, 0, 1))
		b.end()
	}
	// Down phase (tag offset 1): release the subtree.
	b.fanOut(OpSend, 1, children, n, one, 0, 1)
	return b.done()
}

// FanoutTorus is the fanout attribute value naming the torus-aware tree in
// the scalable Ibcast function set (alongside FanoutBinomial and the k-ary
// shapes).
const FanoutTorus = -2

// IbcastTorus builds a topology-aware broadcast over the communicator's
// actual placement: one leader rank per occupied node relays segments down a
// node-level spanning tree whose edges are single torus hops
// (dimension-ordered routes toward the root's node), and each leader fans
// segments out to its node-local ranks over shared memory. On a Flat
// topology the node tree degrades to a binomial tree over occupied nodes —
// still a hierarchical broadcast that sends each payload across the wire
// once per node instead of once per rank.
//
// Segments pipeline exactly as in Ibcast: a rank forwards segment s while
// receiving segment s+1.
func IbcastTorus(c *mpi.Comm, root int, buf mpi.Buf, segSize int) *Schedule {
	n, me := c.Size(), c.Rank()
	name := IbcastName(FanoutTorus, segSize)
	if n == 1 {
		return &Schedule{Name: name}
	}
	net := c.RankState().Network()
	topo := net.Topo()

	// Group comm ranks by node. The leader of a node is its lowest comm rank,
	// except the root's node, which the root itself leads (it owns the data).
	myNode := net.NodeOf(me)
	rootNode := net.NodeOf(root)
	leader := map[int]int{rootNode: root}
	occupied := []int{rootNode}
	var local []int // non-leader comm ranks on my node
	for cr := 0; cr < n; cr++ {
		nd := net.NodeOf(cr)
		if _, ok := leader[nd]; !ok {
			leader[nd] = cr
			occupied = append(occupied, nd)
		}
		if nd == myNode && cr != me {
			local = append(local, cr)
		}
	}

	parentOf := nodeParentFn(topo, rootNode, leader)

	iAmLeader := leader[myNode] == me
	var parent int // comm rank I receive segments from
	var children []int
	if iAmLeader {
		if myNode == rootNode {
			parent = -1
		} else {
			parent = leader[parentOf(myNode)]
		}
		// Child-node leaders first (longest path continues there), then the
		// node-local fanout.
		for _, nd := range occupied {
			if nd != myNode && parentOf(nd) == myNode {
				children = append(children, leader[nd])
			}
		}
		children = append(children, local...)
	} else {
		parent = leader[myNode]
	}

	return pipelined(name, n, buf, segSize, parent, children)
}

// nodeParentFn returns the node-tree parent function for the occupied nodes:
// on a torus, one dimension-ordered hop toward the root's node, skipping
// unoccupied nodes (the hop chain strictly approaches the root, so the walk
// terminates); on Flat, a binomial tree over the occupied nodes in their
// discovery order (root's node first). Every rank derives the identical tree
// because it starts from identical inputs.
func nodeParentFn(topo *netmodel.Topo, rootNode int, leader map[int]int) func(int) int {
	if topo.Torus() {
		step := func(nd int) int {
			for {
				nd = torusHopToward(topo, rootNode, nd)
				if _, ok := leader[nd]; ok || nd == rootNode {
					return nd
				}
			}
		}
		return step
	}
	// Flat: binomial tree over occupied nodes ordered by node id with the
	// root's node first. Order must be derivable identically on every rank;
	// leader-map iteration order is not, so sort.
	nodes := make([]int, 0, len(leader))
	for nd := range leader {
		if nd != rootNode {
			nodes = append(nodes, nd)
		}
	}
	sort.Ints(nodes)
	vrank := make(map[int]int, len(nodes)+1)
	vrank[rootNode] = 0
	order := append([]int{rootNode}, nodes...)
	for i, nd := range order {
		vrank[nd] = i
	}
	return func(nd int) int {
		v := vrank[nd]
		p, _ := bcastTree(len(order), v, FanoutBinomial)
		if p < 0 {
			return nd
		}
		return order[p]
	}
}

// torusHopToward returns the node one dimension-ordered hop from nd toward
// dst's position — the reverse of x-then-y-then-z routing from root to nd, so
// following it repeatedly traces the route backwards: the LAST dimension the
// forward route corrected is the first one undone here.
func torusHopToward(topo *netmodel.Topo, root, nd int) int {
	dims := topo.Dims()
	x, y, z := topo.Coords(nd)
	rx, ry, rz := topo.Coords(root)
	if dz := wrapStep(z, rz, dims[2]); dz != 0 {
		return topo.NodeAt(x, y, mod(z+dz, dims[2]))
	}
	if dy := wrapStep(y, ry, dims[1]); dy != 0 {
		return topo.NodeAt(x, mod(y+dy, dims[1]), z)
	}
	if dx := wrapStep(x, rx, dims[0]); dx != 0 {
		return topo.NodeAt(mod(x+dx, dims[0]), y, z)
	}
	return nd
}

// wrapStep returns -1, 0 or +1: the direction of one shortest-path hop from
// coordinate a toward coordinate b on a ring of the given size (+1 on ties,
// so every rank breaks them identically).
func wrapStep(a, b, size int) int {
	if a == b || size <= 1 {
		return 0
	}
	fwd := mod(b-a, size) // hops going +1
	if fwd <= size-fwd {
		return 1
	}
	return -1
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}
