// Package netmodel provides the interconnect timing model used by the
// simulated MPI substrate — layer S2 of the substitution map (DESIGN.md §1),
// the stand-in for InfiniBand, GigE and the BG/P torus.
//
// The model is LogGP-flavored with three additions that the paper's results
// hinge on:
//
//   - NIC serialization: each node owns a small number of full-duplex NIC
//     channels; concurrent transfers queue on the sender's tx side and the
//     receiver's rx side.
//   - Incast congestion: when many flows converge on one receiving node the
//     effective bandwidth of each flow degrades. The penalty is mild for
//     InfiniBand-like fabrics and severe for TCP over GigE (TCP incast).
//   - Host attendance: RDMA-capable transports move bulk data autonomously,
//     while TCP charges per-byte CPU time at both endpoints inside MPI calls.
//     The attendance costs themselves are charged by the MPI layer (it knows
//     when a rank is inside MPI); this package exposes the parameters.
//
// All times are in seconds, sizes in bytes, bandwidths in bytes/second.
package netmodel

import (
	"fmt"

	"nbctune/internal/chaos"
	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

// Params describes one interconnect + host configuration.
type Params struct {
	Name string

	// Wire characteristics.
	Latency   float64 // one-way wire latency per message
	Bandwidth float64 // per NIC channel, bytes/s
	NICs      int     // NIC channels per node (>=1)
	MsgGap    float64 // per-message NIC channel occupancy (LogGP's g): the
	// message-rate ceiling that makes many-small-message algorithms
	// injection-bound rather than bandwidth-bound.

	// Per-message CPU overheads, charged by the MPI layer.
	OSend     float64 // injection overhead per message (inside MPI)
	ORecv     float64 // processing overhead per arrived message (inside MPI)
	OPost     float64 // cost of posting a request (Isend/Irecv descriptor setup)
	OProgress float64 // fixed cost of one progress call
	OTest     float64 // additional progress cost per outstanding request
	OMatch    float64 // matching cost per posted-receive queue entry scanned
	// per message arrival (linear matching, as in Open MPI 1.6) — this is
	// what makes algorithms with hundreds of outstanding receives expensive
	// at scale.

	// Protocol.
	EagerLimit int  // messages up to this size use the eager protocol
	RDMA       bool // true: bulk data moves without host attendance
	CtrlBytes  int  // size of RTS/CTS control messages

	// Host memory system.
	CopyBandwidth float64 // memcpy bandwidth; also TCP per-byte CPU cost rate
	ShmLatency    float64 // intra-node message latency
	ShmBandwidth  float64 // intra-node bandwidth

	// Incast congestion: effective receive bandwidth of a flow is divided by
	// min(IncastCap, 1 + IncastBeta*max(0, concurrentFlows-IncastK)).
	// IncastCap <= 1 disables the cap.
	IncastK    int
	IncastBeta float64
	IncastCap  float64

	// Topology. Flat (the default) gives every node pair the same Latency.
	// Torus3D arranges nodes in a TorusDims grid and adds HopLatency per
	// torus hop beyond the first — the BlueGene/P interconnect shape.
	Topology   Topology
	TorusDims  [3]int
	HopLatency float64
}

// Topology selects how inter-node distance affects latency.
type Topology int

const (
	// Flat: uniform latency between any two nodes (a full crossbar or a
	// shallow fat tree).
	Flat Topology = iota
	// Torus3D: nodes at coordinates of a wrapping 3D grid; latency grows
	// with Manhattan hop distance.
	Torus3D
)

func (t Topology) String() string {
	if t == Torus3D {
		return "torus3d"
	}
	return "flat"
}

// Validate reports a descriptive error for nonsensical parameter sets.
func (p *Params) Validate() error {
	switch {
	case p.Bandwidth <= 0:
		return fmt.Errorf("netmodel %q: Bandwidth must be positive", p.Name)
	case p.NICs < 1:
		return fmt.Errorf("netmodel %q: NICs must be >= 1", p.Name)
	case p.Latency < 0 || p.OSend < 0 || p.ORecv < 0 || p.OPost < 0 || p.OProgress < 0 || p.OTest < 0 || p.OMatch < 0 || p.MsgGap < 0:
		return fmt.Errorf("netmodel %q: overheads must be non-negative", p.Name)
	case p.EagerLimit < 0:
		return fmt.Errorf("netmodel %q: EagerLimit must be non-negative", p.Name)
	case p.CopyBandwidth <= 0 || p.ShmBandwidth <= 0:
		return fmt.Errorf("netmodel %q: host bandwidths must be positive", p.Name)
	case p.IncastK < 0 || p.IncastBeta < 0:
		return fmt.Errorf("netmodel %q: incast parameters must be non-negative", p.Name)
	case p.HopLatency < 0:
		return fmt.Errorf("netmodel %q: HopLatency must be non-negative", p.Name)
	case p.Topology == Torus3D && (p.TorusDims[0] < 1 || p.TorusDims[1] < 1 || p.TorusDims[2] < 1):
		return fmt.Errorf("netmodel %q: Torus3D needs positive TorusDims", p.Name)
	}
	return nil
}

func coords(n int, dims [3]int) (x, y, z int) {
	x = n % dims[0]
	y = (n / dims[0]) % dims[1]
	z = n / (dims[0] * dims[1])
	return
}

func torusDist(a, b, dim int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap := dim - d; wrap < d {
		d = wrap
	}
	return d
}

// Eager reports whether a message of n bytes uses the eager protocol.
func (p *Params) Eager(n int) bool { return n <= p.EagerLimit }

// CopyTime returns the CPU time to copy n bytes through the host memory
// system (pack/unpack, TCP socket copies).
func (p *Params) CopyTime(n int) float64 { return float64(n) / p.CopyBandwidth }

// nicState is one node's NIC channels and the lanes (sim.Lane) every delivery
// to the node waits in. On a clean flat fabric each lane's arrivals rise in
// the order they are scheduled: a bulk transfer arrives at its rx channel's
// new rxFree, a control or same-size shared-memory message a fixed time after
// it is sent. Chaos jitter, torus distances and mixed sizes make the odd
// message fall back to an ordinary event. The flows inbound to the node are
// the deliveries its rx lanes hold (inbound).
type nicState struct {
	net    *Network  // the view whose engine runs the node: receive halves, deliveries
	txFree []float64 // per channel
	rxFree []float64
	rx     []sim.Lane // per channel: bulk transfers in
	ctrl   sim.Lane   // inter-node control messages in
	shm    sim.Lane   // shared-memory data
	shmCtl sim.Lane   // shared-memory control messages
}

// newNodes builds count nodes of nics channels each with one allocation per
// field, not per node, binding each node to the view viewOf names and its
// lanes to that view's engine.
func newNodes(count, nics int, viewOf func(node int) *Network) []nicState {
	nodes := make([]nicState, count)
	free := make([]float64, 2*count*nics)
	lanes := make([]sim.Lane, count*nics)
	for i := range nodes {
		nd := &nodes[i]
		nd.txFree, nd.rxFree, free = free[:nics:nics], free[nics:2*nics:2*nics], free[2*nics:]
		nd.rx, lanes = lanes[:nics:nics], lanes[nics:]
		nd.net = viewOf(i)
		e := nd.net.eng
		for j := range nd.rx {
			nd.rx[j].Bind(e)
		}
		nd.ctrl.Bind(e)
		nd.shm.Bind(e)
		nd.shmCtl.Bind(e)
	}
	return nodes
}

// Network applies Params to transfers between nodes, tracking NIC channel
// occupancy and incast pressure per node.
type Network struct {
	eng    *sim.Engine
	p      Params
	nodeOf []int // rank -> node; immutable after New, shared by forks
	nodes  []nicState
	topo   *Topo // immutable topology table, shared by forks (topo.go)

	Transfers int64 // Transfer calls, for the benchmark's per-transfer cost

	// A sharded view's records of transfers in flight between shards
	// (transferPDES); a sequential network has none.
	freeRx int32       // recycled records, chained through next
	rxSlab *Slab[rxOp] // this view's, for fresh records when freeRx is empty
	rxs    Slabs[rxOp] // every view's, which the indices on freeRx name
	rxHalf sim.Handler // fireRxHalf, registered with the view's engine (bind)

	rec   *obs.Recorder
	chaos *chaos.Injector
	pdes  *pdesLinks // sharded (PDES) view state; nil on a sequential network
	// chaosFloor / chaosCtrlFloor enforce per-directed-rank-pair FIFO
	// delivery under chaos: jitter and time-varying link factors may delay
	// a message but must never let it overtake an earlier one on the same
	// channel — MPI's non-overtaking guarantee, which real transports
	// restore with per-peer sequence numbers. wireFloor does the same for
	// the wire times of a sharded view's rx halves (transferPDES), which
	// the barrier merges by time. Allocated by SetChaos; the clean path
	// never consults them.
	chaosFloor     map[uint64]float64
	chaosCtrlFloor map[uint64]float64
	wireFloor      map[uint64]float64
}

// rxOp is one inter-node transfer at the wire: what its receive half needs,
// the caller's handler included. A sequential Transfer runs the receive half
// at once on a copy on the stack; after it, the delivery waits in an rx lane
// under the caller's handler, and the lane's count is the receiver's incast
// pressure. On a sharded network, where the receive half crosses the window
// barrier (transferPDES), a record is drawn from a pool on the sending
// shard's view and recycled into the receiving node's view's pool when the
// receive half runs, as mpi's envelope pools exchange records. It names its
// node, the next record on a free list and the caller's handler by index and
// holds no pointer, so the slab chunks it lives in are never traced.
type rxOp struct {
	node     int32 // the receiving node
	next     int32 // the free list's link
	src, dst int32 // ranks, the FIFO clamp's pair (int32 like sim.Pending.Src)
	h        sim.Handler
	a, b     int32 // the caller's handler and its arguments
	bytes    int
	bw, jit  float64 // the sender's link bandwidth and delivery jitter; 56 B in all
}

// bind registers the view's engine callback, once per view. Every view of a
// sharded network registers it first on its fresh engine, so it is the same
// Handler on every view (NewSharded checks it): an rx half another shard
// sends names its handler in the table of the engine it fires on.
func (n *Network) bind() {
	n.rxHalf = n.eng.Handle(n.fireRxHalf)
}

// SetRecorder attaches an observability recorder; Transfer then reports the
// tx/rx occupancy span of every inter-node bulk transfer. The recorder must
// be sized for the network's nodes (obs.Recorder.EnsureNodes). Recording is
// passive — it never changes transfer timing — and nil detaches.
func (n *Network) SetRecorder(rec *obs.Recorder) { n.rec = rec }

// SetChaos attaches a fault/noise injector: inter-node transfers and control
// messages then see the injector's link factors and delivery jitter, and the
// MPI layer draws its ranks' OS noise from it (Chaos). nil detaches; with nil
// attached the arithmetic below is bit-identical to a build without chaos
// (the factors are never even drawn). Each view of a sharded network takes
// its own injector built from the same (profile, seed).
func (n *Network) SetChaos(in *chaos.Injector) {
	n.chaos = in
	n.chaosFloor, n.chaosCtrlFloor, n.wireFloor = nil, nil, nil
	if in != nil {
		n.chaosFloor = make(map[uint64]float64)
		n.chaosCtrlFloor = make(map[uint64]float64)
		n.wireFloor = make(map[uint64]float64)
	}
}

// Chaos returns the attached injector, or nil on a clean network.
func (n *Network) Chaos() *chaos.Injector { return n.chaos }

func pairKey(src, dst int) uint64 { return uint64(src)<<32 | uint64(uint32(dst)) }

// fifoSkew separates clamped arrivals on the same channel. It is far above
// the ulp-level rounding the event queue's relative-time round trip can
// introduce (which would otherwise break the tie toward an arbitrary
// message), and far below every physical timescale in the model.
const fifoSkew = 1e-12

// fifoClamp raises arrival strictly above the latest arrival already
// scheduled on the directed (src,dst) channel and records the new
// high-water mark.
func fifoClamp(floor map[uint64]float64, src, dst int, arrival float64) float64 {
	k := pairKey(src, dst)
	if f, ok := floor[k]; ok && arrival < f+fifoSkew {
		arrival = f + fifoSkew
	}
	floor[k] = arrival
	return arrival
}

// New builds a network for the given rank->node placement.
func New(eng *sim.Engine, p Params, nodeOf []int) (*Network, error) {
	used, err := usedNodes(&p, nodeOf)
	if err != nil {
		return nil, err
	}
	n := &Network{eng: eng, p: p, nodeOf: append([]int(nil), nodeOf...)}
	n.bind()
	n.nodes = newNodes(used, p.NICs, func(int) *Network { return n })
	n.topo = newTopo(&n.p, len(n.nodes))
	return n, nil
}

// usedNodes validates p and the placement and returns the nodes it spans.
func usedNodes(p *Params, nodeOf []int) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	used := 0
	for _, nd := range nodeOf {
		if nd < 0 {
			return 0, fmt.Errorf("netmodel: negative node id %d", nd)
		}
		used = max(used, nd+1)
	}
	return used, nil
}

// Params returns the network's parameter set.
func (n *Network) Params() *Params { return &n.p }

// NodeOf returns the node hosting the given rank.
func (n *Network) NodeOf(rank int) int { return n.nodeOf[rank] }

// Ranks returns the number of ranks the placement covers.
func (n *Network) Ranks() int { return len(n.nodeOf) }

// Engine returns the engine the view schedules on.
func (n *Network) Engine() *sim.Engine { return n.eng }

func minIdx(xs []float64) int {
	best := 0
	for i := range xs {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

// Transfer is TransferH's (deliver, arg) form, through the engine's box
// table (sim.Engine.Box).
func (n *Network) Transfer(src, dst, bytes int, deliver func(any), arg any) float64 {
	h, a, b := n.eng.Box(deliver, arg)
	return n.TransferH(src, dst, bytes, h, a, b)
}

// TransferH schedules the movement of `bytes` payload bytes from the node of
// rank src to the node of rank dst, and calls handler h with (ha, hb) (in
// engine event context) at the virtual time the last byte arrives. It
// returns the predicted arrival time — for a transfer the view Splits, the
// time the sender's NIC has drained the payload (transferPDES). The handler
// is resolved on the engine of the receiving node's view, so on a sharded
// network it must be registered on every view's engine at the same place.
func (n *Network) TransferH(src, dst, bytes int, h sim.Handler, ha, hb int32) float64 {
	now := n.eng.Now()
	n.Transfers++
	a, b := n.nodeOf[src], n.nodeOf[dst]
	if a == b {
		arrival := now + n.p.ShmLatency + float64(bytes)/n.p.ShmBandwidth
		n.nodes[a].shm.AppendH(arrival, h, ha, hb)
		return arrival
	}
	// With no injector attached these are exactly the static params (same
	// values, same arithmetic).
	lat, bw, jit := n.wireLatency(a, b), n.p.Bandwidth, 0.0
	if n.chaos != nil {
		lat, bw, jit = n.degrade(now, src, a, b, lat, bw)
	}

	// Sender-side serialization.
	sn := &n.nodes[a]
	ti := minIdx(sn.txFree)
	start := max(now, sn.txFree[ti])
	txDur := n.p.MsgGap + float64(bytes)/bw
	txEnd := start + txDur
	sn.txFree[ti] = txEnd
	n.rec.NIC(a, ti, obs.TX, start, txEnd, bytes)

	rx := rxOp{node: int32(b), src: int32(src), dst: int32(dst), h: h, a: ha, b: hb, bytes: bytes, bw: bw, jit: jit}
	if n.pdes != nil {
		n.transferPDES(&rx, start+lat)
		return txEnd
	}
	return n.receive(&rx, start+lat)
}

// degrade applies the injector to the static latency and bandwidth of a
// message rank src sends from node a to node b now: the link factors in
// force and a delivery jitter from the sender's stream — timing only, never
// payload.
func (n *Network) degrade(now float64, src, a, b int, lat, bw float64) (float64, float64, float64) {
	lf, bf := n.chaos.Wire(now, a, b)
	return lat * lf, bw * bf, n.chaos.DeliveryJitter(src)
}

// receive runs the receive half on n, the view of the receiving node, the
// wire having delivered the message's head at time wire: incast pressure,
// receiver NIC serialization, the sender's jitter and the pair's FIFO clamp,
// then the delivery of the caller's handler, queued in the lane of its rx
// channel. It returns the arrival time.
func (n *Network) receive(rx *rxOp, wire float64) float64 {
	rn := &n.nodes[rx.node]
	flows := rn.inbound()
	factor := 1.0
	if over := flows - n.p.IncastK; over > 0 {
		factor += n.p.IncastBeta * float64(over)
		if n.p.IncastCap > 1 && factor > n.p.IncastCap {
			factor = n.p.IncastCap
		}
	}
	ri := minIdx(rn.rxFree)
	rxStart := max(wire, rn.rxFree[ri])
	rxDur := n.p.MsgGap + float64(rx.bytes)/rx.bw*factor
	rxEnd := rxStart + rxDur
	rn.rxFree[ri] = rxEnd
	n.rec.NIC(int(rx.node), ri, obs.RX, rxStart, rxEnd, rx.bytes)
	arrival := rxEnd + rx.jit
	if n.chaos != nil {
		arrival = fifoClamp(n.chaosFloor, int(rx.src), int(rx.dst), arrival)
	}
	rn.rx[ri].AppendH(arrival, rx.h, rx.a, rx.b)
	return arrival
}

// inbound returns the flows inbound to the node: the deliveries its rx lanes
// hold, from the receive half that queued each to the instant it fires.
func (nd *nicState) inbound() int {
	flows := 0
	for _, l := range nd.rx {
		flows += l.Pending()
	}
	return flows
}

// CtrlH schedules a small control message (RTS/CTS/ack) from src to dst,
// calling handler h with (ha, hb) on arrival, resolved as TransferH's.
// Control messages ride lanes of their own: they see wire latency but do not
// occupy NIC channels, so bulk transfers cannot head-of-line block the
// protocol handshake.
func (n *Network) CtrlH(src, dst int, h sim.Handler, ha, hb int32) float64 {
	now := n.eng.Now()
	a, b := n.nodeOf[src], n.nodeOf[dst]
	if a == b {
		arrival := now + n.p.ShmLatency
		n.nodes[a].shmCtl.AppendH(arrival, h, ha, hb)
		return arrival
	}
	lat, bw, jit := n.wireLatency(a, b), n.p.Bandwidth, 0.0
	if n.chaos != nil {
		lat, bw, jit = n.degrade(now, src, a, b, lat, bw)
	}
	arrival := now + lat + float64(n.p.CtrlBytes)/bw + jit
	if n.chaos != nil {
		arrival = fifoClamp(n.chaosCtrlFloor, src, dst, arrival)
	}
	if n.pdes != nil {
		// Cross-node control messages cross the window barrier like bulk
		// deliveries: arrival >= now + Latency >= the window end, so the
		// merge at the next barrier always precedes the event.
		n.pdes.out.Add(arrival, int32(src), n.nextSeq(src), n.pdes.shardOfNode[b], h, ha, hb)
		return arrival
	}
	n.nodes[b].ctrl.AppendH(arrival, h, ha, hb)
	return arrival
}
