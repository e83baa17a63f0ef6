package nbc

import (
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
	s := &Schedule{Name: IallgatherName(AllgatherBruck)}
	// tmp holds blocks in rotated order: tmp[i] = block of rank (me+i)%n.
	tmp := staging(send, n*bs)
	s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: bs, Fn: func() {
		mpi.Copy(block(tmp, 0, bs), send)
	}}})
	if n == 1 {
		s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: bs, Fn: func() {
			mpi.Copy(block(recv, me, bs), block(tmp, 0, bs))
		}}})
		return s
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
		s.Rounds = append(s.Rounds, Round{
			{Kind: OpRecv, Peer: from, TagOff: tagOff(phase), Buf: tmp.Slice(pow*bs, cnt*bs)},
			{Kind: OpSend, Peer: to, TagOff: tagOff(phase), Buf: tmp.Slice(0, cnt*bs)},
		})
		phase++
	}
	// Inverse rotation into the caller's layout.
	s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: n * bs, Fn: func() {
		for i := 0; i < n; i++ {
			mpi.Copy(block(recv, (me+i)%n, bs), block(tmp, i, bs))
		}
	}}})
	return s
}

// IbarrierTree builds a binomial-tree barrier: gather completion up the tree,
// then release down it. 2·log2(n) critical-path latency like dissemination,
// but each rank exchanges only O(1) messages with its tree neighbors instead
// of log2(n) distinct partners — fewer total messages and matches, which is
// what matters once OMatch×queue length and NIC message gaps dominate at 4K+
// ranks.
func IbarrierTree(n, me int) *Schedule {
	s := &Schedule{Name: IbarrierTreeName}
	if n == 1 {
		return s
	}
	parent, children := bcastTree(n, me, FanoutBinomial)
	ops := 2 * len(children)
	if parent >= 0 {
		ops += 2
	}
	b := newRoundBuf(ops, 4)
	// Up phase (tag offset 0): leaves report first; an inner node reports
	// once all its children have.
	for _, c := range children {
		b.add(Op{Kind: OpRecv, Peer: c, TagOff: 0, Buf: mpi.Virtual(1)})
	}
	b.end()
	if parent >= 0 {
		b.add(Op{Kind: OpSend, Peer: parent, TagOff: 0, Buf: mpi.Virtual(1)})
		b.end()
		b.add(Op{Kind: OpRecv, Peer: parent, TagOff: 1, Buf: mpi.Virtual(1)})
		b.end()
	}
	// Down phase (tag offset 1): release the subtree.
	for _, c := range children {
		b.add(Op{Kind: OpSend, Peer: c, TagOff: 1, Buf: mpi.Virtual(1)})
	}
	b.end()
	s.Rounds = b.rounds
	return s
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
	s := &Schedule{Name: IbcastName(FanoutTorus, segSize)}
	if n == 1 {
		return s
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

	s.Rounds = pipelinedRounds(buf, segSize, parent, children)
	return s
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
