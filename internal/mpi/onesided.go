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
// involved), so this, ReceivedFor and PutInstanced's target lookup wait for
// the engine to catch up with the rank first.
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
// registered per (world, ctx); creation order is collective so ctx values
// agree across ranks.
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
// Not available on a sharded (PDES) world: puts deposit into the target
// rank's window from the origin's execution context, which would mutate
// another shard's state (DESIGN.md §2).
func (c *Comm) CreateWin(b Buf) *Win {
	if c.r.w.shardOf != nil {
		panic("mpi: one-sided windows are not supported on a sharded (PDES) world")
	}
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

// target returns the peer's window object.
func (w *Win) target(peer int) *Win {
	reg := w.c.r.w.registry()
	t := reg.wins[w.ctx][peer]
	if t == nil {
		panic(fmt.Sprintf("mpi: rank %d has no window for ctx %d (window not created collectively?)", peer, w.ctx))
	}
	return t
}

// osOp carries a put across the network: the argument of deliverPut and,
// on host-attended transports, the notice payload made visible at the
// target's next MPI instant.
type osOp struct {
	tgt      *Win
	tgtRank  *Rank
	origin   *Rank
	req      *Request
	data     Buf // payload in flight
	off      int
	instance int64
	rdma     bool
}

// process handles the ntOneSided notice at an MPI instant: a host-attended
// put becomes visible. The osOp leaves the protocol here, so it is recycled.
func (op *osOp) process(r *Rank) {
	p := r.net().Params()
	r.charge(p.ORecv + p.CopyTime(op.data.Len()))
	op.land()
	r.w.freeOS(op)
}

// land deposits the payload in the target window and counts the arrival.
func (op *osOp) land() {
	w := op.tgt
	if op.data.HasData() && w.buf.HasData() {
		copy(w.buf.Data()[op.off:], op.data.Data())
	}
	if w.perInstance == nil {
		w.perInstance = map[int64]int{}
	}
	w.perInstance[op.instance]++
}

// xmitPut starts a put's transfer at the instant the origin's clock had
// reached (see the protocol's other network calls in p2p.go).
func xmitPut(arg any) {
	op := arg.(*osOp)
	op.origin.net().Transfer(op.origin.id, op.tgtRank.id, op.data.Len(), deliverPut, op)
}

// deliverPut is the Transfer callback of PutInstanced: on RDMA the bytes land
// directly in target memory with no target CPU; on host-attended transports
// visibility waits for the target's next MPI instant.
func deliverPut(arg any) {
	op := arg.(*osOp)
	origin, req := op.origin, op.req
	if op.rdma {
		op.land()
		// A target blocked in a put-counting schedule must observe the
		// arrival.
		op.tgtRank.enqueue(notice{kind: ntWake})
		// The op leaves the protocol here; the origin notice below carries
		// only the request.
		origin.w.freeOS(op)
	} else {
		op.tgtRank.enqueue(notice{kind: ntOneSided, os: op})
	}
	// Local completion notice for the origin.
	origin.enqueue(notice{kind: ntSendDone, sreq: req})
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
	r.proc.Sync()
	tgt := w.target(peer)
	tgtRank := r.w.ranks[peer]
	if !p.RDMA {
		r.charge(p.CopyTime(size))
	}
	op := r.w.allocOS()
	op.tgt, op.tgtRank, op.origin, op.req = tgt, tgtRank, r, req
	op.data, op.off, op.instance, op.rdma = b.Clone(), off, instance, p.RDMA
	r.proc.Do(xmitPut, op)
	return req
}
