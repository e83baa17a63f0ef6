// PDES support: sharded network views over one shared platform.
//
// Under PDES (DESIGN.md §2) every shard owns a *view* of the same physical
// network: the per-node NIC states, topology table and rank placement are
// shared, but each view is bound to its shard's engine and outbox. The
// single-writer discipline that makes this race-free without locks:
//
//   - a node's tx channels are touched only when one of its ranks sends,
//     and ranks of one node always live on one shard (node-aligned
//     partition);
//   - a node's rx channels and incast counter are touched only by the
//     receive half, which runs on the receiving node's shard;
//   - a node's delivery lanes are bound to its shard's engine and appended
//     to only there: by the receive half, or by a sender on the same node.
//
// A cross-node transfer is split at the wire: the tx half (sender NIC
// serialization) runs at send time on the source shard; the rx half
// (incast, receiver NIC serialization, delivery) is carried across the
// window barrier and runs on the destination shard at the wire-arrival
// time start + WireLatency — which is >= send time + the lookahead floor,
// so it can never land inside the window that produced it. Control
// messages compute their full arrival at send time and cross the barrier
// directly. Intra-node (shm) traffic stays local, in the node's lanes.
package netmodel

import (
	"fmt"

	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

// pdesLinks is the per-view PDES state.
type pdesLinks struct {
	out         *sim.Outbox
	shardOfNode []int      // node -> shard; shared, immutable
	peers       []*Network // all shard views, indexed by shard
	seq         []uint64   // per-rank cross-shard send sequence; shared, but
	// each rank's slot is written only from its own shard (sends execute on
	// the sender's shard), so no two shards race on an element.
	freeRx []*rxOp
}

// rxOp is the receive half of one cross-node transfer: allocated on the
// sending shard, executed and recycled on the receiving shard (the pools
// exchange records across shards exactly like mpi's envelope pools).
type rxOp struct {
	n     *Network // destination shard's view
	node  int      // receiving node
	bytes int
	fn    func(any)
	arg   any
}

func (n *Network) allocRx() *rxOp {
	if k := len(n.pdes.freeRx); k > 0 {
		op := n.pdes.freeRx[k-1]
		n.pdes.freeRx = n.pdes.freeRx[:k-1]
		return op
	}
	return &rxOp{}
}

// nextSeq returns rank src's next cross-shard sequence number. Together
// with the event time and src it forms the canonical barrier merge key.
func (n *Network) nextSeq(src int) uint64 {
	s := n.pdes.seq[src]
	n.pdes.seq[src] = s + 1
	return s
}

// transferPDES is Transfer's cross-node path under PDES: tx half now, rx
// half through the window barrier. It returns the sender-side completion
// time (tx drain), which is when the MPI layer completes a rendezvous send
// under PDES — the sender's NIC is done with the buffer; the wire and
// receiver finish asynchronously on the destination shard.
func (n *Network) transferPDES(src, dst, bytes, a, b int, deliver func(any), arg any) float64 {
	now := n.eng.Now()
	sn := &n.nodes[a]
	ti := minIdx(sn.txFree)
	start := max(now, sn.txFree[ti])
	txDur := n.p.MsgGap + float64(bytes)/n.p.Bandwidth
	txEnd := start + txDur
	sn.txFree[ti] = txEnd
	n.rec.NIC(a, ti, obs.TX, start, txEnd, bytes)

	ds := n.pdes.shardOfNode[b]
	op := n.allocRx()
	op.n = n.pdes.peers[ds]
	op.node = b
	op.bytes = bytes
	op.fn, op.arg = deliver, arg
	n.pdes.out.Add(start+n.p.WireLatency(a, b), int32(src), n.nextSeq(src), ds, fireRxHalf, op)
	return txEnd
}

// fireRxHalf runs on the destination shard at wire-arrival time: incast
// sampling, receiver NIC serialization, and the delayed delivery callback.
func fireRxHalf(argv any) {
	op := argv.(*rxOp)
	n := op.n // destination shard's view
	now := n.eng.Now()
	rn := &n.nodes[op.node]
	flows := rn.inRx
	rn.inRx++
	factor := 1.0
	if over := flows - n.p.IncastK; over > 0 {
		factor += n.p.IncastBeta * float64(over)
		if n.p.IncastCap > 1 && factor > n.p.IncastCap {
			factor = n.p.IncastCap
		}
		n.IncastSamples++
	}
	ri := minIdx(rn.rxFree)
	rxStart := max(now, rn.rxFree[ri])
	rxDur := n.p.MsgGap + float64(op.bytes)/n.p.Bandwidth*factor
	rn.rxFree[ri] = rxStart + rxDur
	n.rec.NIC(op.node, ri, obs.RX, rxStart, rxStart+rxDur, op.bytes)
	rn.rx[ri].Append(rxStart+rxDur, fireDelivery, n.newDelivery(rn, op.fn, op.arg))
	op.n, op.fn, op.arg = nil, nil, nil
	n.pdes.freeRx = append(n.pdes.freeRx, op)
}

// NewSharded builds one network view per shard over a common platform.
// shardOfNode maps every node to its shard; all ranks of a node must live
// on that shard (the mpi layer's sharded world construction guarantees
// this). The views share NIC states, placement and topology; each is bound
// to its engine and its shard's outbox on ws, and each node's lanes to the
// engine of the shard that owns the node.
func NewSharded(engs []*sim.Engine, ws *sim.Windows, p Params, nodeOf []int, shardOfNode []int) ([]*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(engs) != ws.Shards() {
		return nil, fmt.Errorf("netmodel: %d engines but %d window shards", len(engs), ws.Shards())
	}
	maxNode := -1
	for _, nd := range nodeOf {
		if nd < 0 {
			return nil, fmt.Errorf("netmodel: negative node id %d", nd)
		}
		if nd > maxNode {
			maxNode = nd
		}
	}
	if maxNode+1 > len(shardOfNode) {
		return nil, fmt.Errorf("netmodel: placement uses node %d but shardOfNode covers %d nodes", maxNode, len(shardOfNode))
	}
	nodes := newNodes(maxNode+1, p.NICs, func(node int) *sim.Engine { return engs[shardOfNode[node]] })
	placement := append([]int(nil), nodeOf...)
	seq := make([]uint64, len(nodeOf))
	nets := make([]*Network, len(engs))
	var topo *Topo
	for s := range engs {
		n := &Network{eng: engs[s], p: p, nodeOf: placement, nodes: nodes}
		if topo == nil {
			topo = newTopo(&n.p, len(nodes))
		}
		n.topo = topo
		n.pdes = &pdesLinks{out: ws.Outbox(s), shardOfNode: shardOfNode, seq: seq}
		nets[s] = n
	}
	for s := range nets {
		nets[s].pdes.peers = nets
	}
	return nets, nil
}
