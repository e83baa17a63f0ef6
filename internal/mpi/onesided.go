package mpi

// One-sided communication (MPI-2 style windows with Put/Get and fence
// synchronization). The paper names one-sided data transfer primitives as a
// further attribute dimension for non-blocking function sets ("a further
// distinction based on data transfer primitives (i.e. Put/Get vs
// Isend/Irecv) could be added later on", §III-E); this implements that
// extension.
//
// Semantics in the simulation:
//
//   - Put moves bytes directly into the target rank's window memory. On RDMA
//     transports the transfer is fully autonomous — the target never spends
//     CPU and needs no matching MPI instant, which is precisely the
//     attraction of put-based collectives. On host-attended transports (TCP)
//     the target is charged the per-byte copy cost at its next MPI instant
//     before the put is visible.
//   - Get requests bytes from the target's window; the target's memory is
//     read autonomously on RDMA (the request control message still travels).
//   - Fence completes all locally issued and incoming operations and
//     synchronizes all ranks of the window (dissemination barrier).
//
// Access epochs follow the simple fence model: Put/Get between two fences,
// results visible after the closing fence.

import "fmt"

// Win is a one-sided communication window: a per-rank exposed buffer.
// Creating a window is collective over the communicator.
type Win struct {
	c      *Comm
	buf    Buf // exposed memory; virtual windows carry no storage
	ctx    int
	local  []*Request // requests for locally-issued operations
	inPuts int        // incoming puts not yet visible (host-attended)
	epoch  int

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
func (w *Win) NextInstance() int64 {
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
	return w.perInstance[instance]
}

func (w *Win) countArrival(instance int64) {
	if instance > 0 {
		if w.perInstance == nil {
			w.perInstance = map[int64]int{}
		}
		w.perInstance[instance]++
	}
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
// another shard's state (DESIGN.md §13).
func (c *Comm) CreateWin(b Buf) *Win {
	if c.r.w.shardOf != nil {
		panic("mpi: one-sided windows are not supported on a sharded (PDES) world")
	}
	c.splits++
	ctx := c.ctx*1000003 + 500000 + c.splits
	win := &Win{c: c, buf: b, ctx: ctx}
	reg := c.r.w.registry()
	if reg.wins[ctx] == nil {
		reg.wins[ctx] = map[int]*Win{}
	}
	reg.wins[ctx][c.r.id] = win
	return win
}

// Size returns the window size in bytes.
func (w *Win) Size() int { return w.buf.Len() }

// target returns the peer's window object.
func (w *Win) target(peer int) *Win {
	reg := w.c.r.w.registry()
	t := reg.wins[w.ctx][w.c.members[peer]]
	if t == nil {
		panic(fmt.Sprintf("mpi: rank %d has no window for ctx %d (window not created collectively?)", peer, w.ctx))
	}
	return t
}

// osOp carries a one-sided operation across the network: the argument for
// the put/get delivery functions and, for host-attended puts, the notice
// payload made visible at the target's next MPI instant.
type osOp struct {
	tgt      *Win
	tgtRank  *Rank
	origin   *Rank
	req      *Request
	data     Buf // payload in flight (put) / fetched bytes (get reply)
	dst      Buf // get: destination at the origin
	off      int
	instance int64
	rdma     bool
	get      bool // distinguishes get-reply processing from put-visible
}

// process handles the ntOneSided notice at an MPI instant. The osOp leaves
// the protocol here, so it is recycled on both paths.
func (op *osOp) process(r *Rank) {
	p := r.net().Params()
	if op.get {
		// Get reply landed at the origin.
		cost := p.ORecv
		if !p.RDMA {
			cost += p.CopyTime(op.req.Size())
		}
		r.charge(cost)
		Copy(op.dst, op.data)
		op.req.done = true
		r.outstanding--
		r.w.freeOS(op)
		return
	}
	// Host-attended put becomes visible.
	r.charge(p.ORecv + p.CopyTime(op.data.Len()))
	if op.data.HasData() && op.tgt.buf.HasData() {
		copy(op.tgt.buf.Data()[op.off:], op.data.Data())
	}
	op.tgt.inPuts--
	op.tgt.countArrival(op.instance)
	r.w.freeOS(op)
}

// deliverPut is the Transfer callback for Put: on RDMA the bytes land
// directly in target memory with no target CPU; on host-attended transports
// visibility waits for the target's next MPI instant.
func deliverPut(arg any) {
	op := arg.(*osOp)
	origin, req := op.origin, op.req
	if op.rdma {
		if op.data.HasData() && op.tgt.buf.HasData() {
			copy(op.tgt.buf.Data()[op.off:], op.data.Data())
		}
		op.tgt.inPuts--
		op.tgt.countArrival(op.instance)
		// A target blocked in Fence or a put-counting schedule must
		// observe the arrival.
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

// Put transfers b into the target rank's window at byte offset off. It
// returns a request that completes when the local buffer may be reused;
// visibility at the target is guaranteed by the next Fence.
func (w *Win) Put(peer, off int, b Buf) *Request {
	return w.PutInstanced(0, peer, off, b)
}

// PutInstanced is Put tagged with a collective operation instance id (from
// NextInstance); the target's ReceivedFor(instance) counts exactly these
// puts, giving put-with-notify completion that is immune to early arrivals
// from the next instance.
func (w *Win) PutInstanced(instance int64, peer, off int, b Buf) *Request {
	r := w.c.r
	p := r.net().Params()
	size := b.Len()
	if off < 0 || off+size > w.buf.Len() {
		panic(fmt.Sprintf("mpi: put of %d bytes at offset %d exceeds window size %d", size, off, w.buf.Len()))
	}
	req := r.w.allocReq()
	req.r, req.kind, req.peer, req.ctx, req.buf = r, reqSend, w.c.members[peer], w.ctx, b
	r.charge(p.OPost + p.OSend)
	r.outstanding++
	tgt := w.target(peer)
	tgtRank := r.w.ranks[w.c.members[peer]]
	if !p.RDMA {
		r.charge(p.CopyTime(size))
	}
	w.addLocal(req)
	tgt.inPuts++
	op := r.w.allocOS()
	op.tgt, op.tgtRank, op.origin, op.req = tgt, tgtRank, r, req
	op.data, op.off, op.instance, op.rdma = b.Clone(), off, instance, p.RDMA
	r.net().Transfer(r.id, tgtRank.id, size, deliverPut, op)
	return req
}

// addLocal records a locally-issued operation for the next Fence. Windows
// driven by fence-less put-counting schedules never call Fence, so the list
// is compacted opportunistically — completed requests are dropped (their
// owner may still hold them; they are recycled by the GC, not the pool) to
// keep the list from growing without bound.
func (w *Win) addLocal(req *Request) {
	if len(w.local) >= 64 {
		live := w.local[:0]
		for _, q := range w.local {
			if !q.done {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(w.local); i++ {
			w.local[i] = nil
		}
		w.local = live
	}
	w.local = append(w.local, req)
}

// deliverGetRequest is the Ctrl callback for Get: the request arrived at the
// target, whose window memory is read and sent back.
func deliverGetRequest(arg any) {
	op := arg.(*osOp)
	size := op.req.Size()
	op.data = op.tgt.buf.Slice(op.off, size).Clone()
	op.origin.w.net.Transfer(op.tgtRank.id, op.origin.id, size, deliverGetReply, op)
}

// deliverGetReply is the Transfer callback for the data flowing back to the
// origin.
func deliverGetReply(arg any) {
	op := arg.(*osOp)
	op.origin.enqueue(notice{kind: ntOneSided, os: op})
}

// Get fetches dst.Len() bytes from the target rank's window at byte offset
// off into dst. The request completes when the data has arrived locally.
func (w *Win) Get(peer, off int, dst Buf) *Request {
	r := w.c.r
	p := r.net().Params()
	size := dst.Len()
	if off < 0 || off+size > w.buf.Len() {
		panic(fmt.Sprintf("mpi: get of %d bytes at offset %d exceeds window size %d", size, off, w.buf.Len()))
	}
	req := r.w.allocReq()
	req.r, req.kind, req.peer, req.ctx, req.buf = r, reqRecv, w.c.members[peer], w.ctx, dst
	r.charge(p.OPost + p.OSend)
	r.outstanding++
	w.addLocal(req)
	tgt := w.target(peer)
	tgtRank := r.w.ranks[w.c.members[peer]]
	// The get request travels as a control message; on RDMA the data flows
	// back without target CPU involvement.
	op := r.w.allocOS()
	op.tgt, op.tgtRank, op.origin, op.req = tgt, tgtRank, r, req
	op.dst, op.off, op.get = dst, off, true
	r.net().Ctrl(r.id, tgtRank.id, deliverGetRequest, op)
	return req
}

// Fence closes the current access epoch: it completes all locally issued
// operations, waits until incoming puts are visible, and synchronizes all
// window ranks.
func (w *Win) Fence() {
	r := w.c.r
	// Complete local operations. The requests stay owned by their issuers
	// (Put/Get returned them), so they are dropped, not pooled; clearing the
	// vacated slots lets completed requests be collected.
	if len(w.local) > 0 {
		r.Wait(w.local...)
		for i := range w.local {
			w.local[i] = nil
		}
		w.local = w.local[:0]
	}
	// Wait for incoming puts to land (they decrement inPuts from engine
	// events or notice processing).
	r.charge(r.net().Params().OProgress)
	r.waitUntil(func() bool { return w.inPuts == 0 })
	// Synchronize all ranks.
	w.c.Barrier()
	w.epoch++
}

// Epoch returns the number of completed fences.
func (w *Win) Epoch() int { return w.epoch }
