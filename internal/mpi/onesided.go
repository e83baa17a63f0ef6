package mpi

// One-sided communication: put-with-notify windows. The paper names
// one-sided data transfer primitives as a further attribute dimension for
// non-blocking function sets ("a further distinction based on data transfer
// primitives (i.e. Put/Get vs Isend/Irecv) could be added later on", §III-E);
// this implements what the put-based schedules of internal/nbc use of it.
//
// A put moves bytes directly into the target rank's window memory and is
// counted there for the collective operation instance it was tagged with.
// On RDMA transports the transfer is fully autonomous — the target never
// spends CPU and needs no matching MPI instant, which is precisely the
// attraction of put-based collectives. On host-attended transports (TCP) the
// target is charged the per-byte copy cost at its next MPI instant before
// the put is visible (and counted).
//
// The origin names the target by rank and window context only: the put's
// record crosses the network like an envelope, the target window is looked
// up where the put lands, and the record is recycled into the target's pool.
// So a put to another shard of a sharded world is an ordinary cross-shard
// message; its origin completes when its NIC has drained the payload, on its
// own shard (xmitPut), as a sharded rendezvous send does.

import "fmt"

// Win is a one-sided communication window: a per-rank exposed buffer.
// Creating a window is collective over the communicator.
type Win struct {
	c   *Comm
	buf Buf // exposed memory; virtual windows carry no storage
	ctx int

	// Per-instance arrival counting for put-with-notify collectives.
	// Instances are ordered collectively (NextInstance), so a put tagged
	// with instance k is counted for k even when it arrives before the
	// target has started instance k — the race a plain baseline-subtraction
	// scheme loses.
	instanceSeq int64
	perInstance map[int64]int
}

// NextInstance starts a new collective operation instance over this window
// and returns its id. Like all collective state it relies on every rank
// calling it in the same order. Counters of past instances are released.
//
// The counters are written by events (an RDMA put lands with no rank
// involved), so this and ReceivedFor wait for the engine to catch up with the
// rank first.
func (w *Win) NextInstance() int64 {
	w.c.r.proc.Sync()
	w.instanceSeq++
	for k := range w.perInstance {
		if k < w.instanceSeq {
			delete(w.perInstance, k)
		}
	}
	return w.instanceSeq
}

// ReceivedFor returns how many instance-tagged puts have landed for the
// given instance id.
func (w *Win) ReceivedFor(instance int64) int {
	w.c.r.proc.Sync()
	return w.perInstance[instance]
}

// winRegistry lets puts find the target rank's window object. Windows are
// registered per (world, ctx) — on a sharded world, in the world of the
// shard that runs the rank; creation order is collective so ctx values agree
// across ranks.
type winRegistry struct {
	wins map[int]map[int]*Win // ctx -> world rank -> *Win
}

func (w *World) registry() *winRegistry {
	if w.winReg == nil {
		w.winReg = &winRegistry{wins: map[int]map[int]*Win{}}
	}
	return w.winReg
}

// CreateWin collectively creates a window exposing b on every rank of c.
func (c *Comm) CreateWin(b Buf) *Win {
	c.wins++
	ctx := c.ctx*1000003 + 500000 + c.wins
	win := &Win{c: c, buf: b, ctx: ctx}
	reg := c.r.w.registry()
	if reg.wins[ctx] == nil {
		reg.wins[ctx] = map[int]*Win{}
	}
	reg.wins[ctx][c.r.id] = win
	return win
}

// window returns rank r's window of context ctx. It runs where r runs.
func (r *Rank) window(ctx int) *Win {
	t := r.w.registry().wins[ctx][r.id]
	if t == nil {
		panic(fmt.Sprintf("mpi: rank %d has no window for ctx %d (window not created collectively?)", r.id, ctx))
	}
	return t
}

// osOp carries a put across the network: the argument of deliverPut and,
// on host-attended transports, the notice payload made visible at the
// target's next MPI instant.
type osOp struct {
	tgtRank  *Rank
	origin   *Rank    // read by the origin's shard only, until the transfer starts
	req      *Request // completed at delivery; nil once xmitPut completes it at NIC drain
	ctx      int      // the target window's context
	data     Buf      // payload in flight
	off      int
	instance int64
	rdma     bool
}

// process handles the ntOneSided notice at an MPI instant: a host-attended
// put becomes visible.
func (op *osOp) process(r *Rank) {
	p := r.net().Params()
	r.charge(p.ORecv + p.CopyTime(op.data.Len()))
	op.land()
}

// land deposits the payload in the target window, counts the arrival, and
// recycles the osOp into the target's pool: the put leaves the protocol here.
func (op *osOp) land() {
	t := op.tgtRank
	w := t.window(op.ctx)
	if op.data.HasData() && w.buf.HasData() {
		copy(w.buf.Data()[op.off:], op.data.Data())
	}
	if w.perInstance == nil {
		w.perInstance = map[int64]int{}
	}
	w.perInstance[op.instance]++
	t.w.freeOS(op)
}

// xmitPut starts a put's transfer at the instant the origin's clock had
// reached (see the protocol's other network calls in p2p.go). A put to
// another node of a sharded world lands on the target's shard, where the
// origin's request must not be touched: it completes here, on the origin's
// shard, when the NIC has drained the payload (Transfer's return under
// PDES), as xmitBulkPDES does for a rendezvous send.
func xmitPut(arg any) {
	op := arg.(*osOp)
	r := op.origin
	if r.w.shardOf == nil || r.net().SameNode(r.id, op.tgtRank.id) {
		r.net().Transfer(r.id, op.tgtRank.id, op.data.Len(), deliverPut, op)
		return
	}
	req := op.req
	op.origin, op.req = nil, nil
	txEnd := r.net().Transfer(r.id, op.tgtRank.id, op.data.Len(), deliverPut, op)
	r.w.eng.AtTimeCall(txEnd, fireSendDone, req)
}

// deliverPut is the Transfer callback of PutInstanced: on RDMA the bytes land
// directly in target memory with no target CPU; on host-attended transports
// visibility waits for the target's next MPI instant. A request still on the
// op completes here.
func deliverPut(arg any) {
	op := arg.(*osOp)
	origin, req, tgt := op.origin, op.req, op.tgtRank
	if op.rdma {
		op.land()
		// A target blocked in a put-counting schedule must observe the
		// arrival.
		tgt.enqueue(notice{kind: ntWake})
	} else {
		tgt.enqueue(notice{kind: ntOneSided, os: op})
	}
	if req != nil {
		origin.enqueue(notice{kind: ntSendDone, sreq: req})
	}
}

// PutInstanced transfers b into the target rank's window at byte offset off,
// tagged with a collective operation instance id (from NextInstance). It
// returns a request that completes when the local buffer may be reused; the
// target's ReceivedFor(instance) counts exactly the puts of that instance,
// giving put-with-notify completion that is immune to early arrivals from
// the next instance.
func (w *Win) PutInstanced(instance int64, peer, off int, b Buf) *Request {
	r := w.c.r
	p := r.net().Params()
	size := b.Len()
	if off < 0 || off+size > w.buf.Len() {
		panic(fmt.Sprintf("mpi: put of %d bytes at offset %d exceeds window size %d", size, off, w.buf.Len()))
	}
	req := r.w.allocReq()
	req.r, req.peer, req.ctx, req.buf = r, peer, w.ctx, b
	r.charge(p.OPost + p.OSend)
	r.outstanding++
	if !p.RDMA {
		r.charge(p.CopyTime(size))
	}
	op := r.w.allocOS()
	op.tgtRank, op.origin, op.req, op.ctx = r.w.ranks[peer], r, req, w.ctx
	op.data, op.off, op.instance, op.rdma = b.Clone(), off, instance, p.RDMA
	r.proc.Do(xmitPut, op)
	return req
}
