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
// A cross-node transfer is split at the wire: the tx half (link factors,
// sender NIC serialization) runs at send time on the source shard; the rx
// half (rxOp.receive: incast, receiver NIC serialization, jitter, FIFO
// clamp, delivery — the same function a sequential Transfer runs at once)
// is carried across the window barrier and runs on the destination shard at
// the wire-arrival time start + latency — which is >= send time + the
// lookahead floor, since chaos never shortens a wire, so it can never land
// inside the window that produced it. Control messages compute their full
// arrival at send time and cross the barrier directly. Intra-node (shm)
// traffic stays local, in the node's lanes.
//
// Under chaos every view carries its own injector built from the same
// (profile, seed): a rank draws jitter from its own stream on its own shard,
// and burst and shift schedules are functions of virtual time alone. The
// FIFO floors are single-writer too: a pair's wire floor lives on the
// sender's view, its arrival and control floors on the views that run
// its receive halves and its sends respectively.
package netmodel

import (
	"fmt"
	"runtime"

	"nbctune/internal/sim"
)

// pdesLinks is the per-view PDES state.
type pdesLinks struct {
	out         *sim.Outbox
	shardOfNode []int    // node -> shard; shared, immutable
	seq         []uint64 // per-rank cross-shard send sequence; shared, but
	// each rank's slot is written only from its own shard (sends execute on
	// the sender's shard), so no two shards race on an element.
}

// nextSeq returns rank src's next cross-shard sequence number. Together
// with the event time and src it forms the canonical barrier merge key.
func (n *Network) nextSeq(src int) uint64 {
	s := n.pdes.seq[src]
	n.pdes.seq[src] = s + 1
	return s
}

// transferPDES is Transfer's cross-node path under PDES, after the tx half:
// the rx half crosses the window barrier and runs on the destination shard
// at the wire time. The barrier merges by time, so under chaos the wire time
// of a rank pair is clamped above the pair's previous one: a shift that
// lowers latency between two sends must not let the later rx half reserve
// the receiver's NIC first. Transfer then returns the tx drain time, which is
// when the MPI layer completes a rendezvous send or a put under PDES — the
// sender's NIC is done with the buffer; the wire and receiver finish
// asynchronously on the destination shard.
func (n *Network) transferPDES(rx *rxOp, node int, wire float64) {
	if n.chaos != nil {
		wire = fifoClamp(n.wireFloor, int(rx.src), int(rx.dst), wire)
	}
	n.pdes.out.Add(wire, rx.src, n.nextSeq(int(rx.src)), n.pdes.shardOfNode[node], fireRxHalf, rx)
}

// Splits reports whether this view splits a transfer from rank src to rank
// dst at the wire: on a sharded view, when the ranks are on different nodes.
// Transfer then returns the time the sender's NIC drained the payload, and
// the delivery fires on the receiving node's shard.
func (n *Network) Splits(src, dst int) bool {
	return n.pdes != nil && n.nodeOf[src] != n.nodeOf[dst]
}

// Owns reports whether this view runs the rank's node: on a sequential
// network every rank's, on a sharded view those of its shard's nodes.
func (n *Network) Owns(rank int) bool { return n.nodes[n.nodeOf[rank]].net == n }

// fireRxHalf runs on the destination shard at wire-arrival time.
func fireRxHalf(arg any) {
	rx := arg.(*rxOp)
	n := rx.rn.net
	rx.receive(n.nodeOf[rx.dst], n.eng.Now())
}

// NewSharded builds the sharded network: one engine per shard, seeded with
// seed, the windows that drive them and one view per engine, all over one
// platform. It alone decides the partition: the shard count (<= 0:
// GOMAXPROCS) is clamped to the nodes the placement uses, and each shard
// gets a contiguous range of nodes, balanced to within one node; a rank runs
// on its node's shard (Owns). The lookahead is Params.Latency, the minimum
// cross-node wire latency (TestLookaheadFloorBounds). The views share NIC
// states, placement and topology; each node is bound to its shard's view,
// its lanes to that shard's engine.
func NewSharded(p Params, nodeOf []int, shards int, seed int64) ([]*Network, *sim.Windows, error) {
	used, err := usedNodes(&p, nodeOf)
	if err != nil {
		return nil, nil, err
	}
	if p.Latency <= 0 {
		return nil, nil, fmt.Errorf("netmodel %q: latency %g leaves no PDES lookahead", p.Name, p.Latency)
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	shards = max(1, min(shards, used))
	engs := make([]*sim.Engine, shards)
	for s := range engs {
		engs[s] = sim.NewEngine(seed)
	}
	ws := sim.NewWindows(engs, p.Latency)
	shardOfNode := make([]int, used)
	for nd := range shardOfNode {
		shardOfNode[nd] = nd * shards / used
	}
	placement := append([]int(nil), nodeOf...)
	seq := make([]uint64, len(nodeOf))
	nets := make([]*Network, shards)
	for s := range engs {
		nets[s] = &Network{eng: engs[s], p: p, nodeOf: placement}
		nets[s].pdes = &pdesLinks{out: ws.Outbox(s), shardOfNode: shardOfNode, seq: seq}
	}
	nodes := newNodes(used, p.NICs, func(node int) *Network { return nets[shardOfNode[node]] })
	topo := newTopo(&nets[0].p, len(nodes))
	for _, n := range nets {
		n.nodes, n.topo = nodes, topo
	}
	return nets, ws, nil
}
