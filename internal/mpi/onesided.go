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
// The origin names the target by rank and window context only: the put
// travels in the xfer record a rendezvous send's bulk data uses (p2p.go),
// the target window is looked up where the put lands, and the record is
// recycled into the target's pool. So a put to another shard of a sharded
// world is an ordinary cross-shard message, and where the network splits it
// its origin completes when its NIC has drained the payload (xmit).

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
// registered per (shard, ctx), in the shard that runs the rank; creation
// order is collective so ctx values agree across ranks.
type winRegistry struct {
	wins map[int]map[int]*Win // ctx -> world rank -> *Win
}

func (s *shard) registry() *winRegistry {
	if s.winReg == nil {
		s.winReg = &winRegistry{wins: map[int]map[int]*Win{}}
	}
	return s.winReg
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

// processPut handles the ntOneSided notice at an MPI instant: a
// host-attended put becomes visible.
func (r *Rank) processPut(x *xfer) {
	p := r.net().Params()
	r.charge(p.ORecv + p.CopyTime(x.buf.n))
	x.land(r)
}

// land deposits a put's payload in the target window of t, the rank it was
// sent to, counts the arrival, and recycles the record into the target's
// pool: the put leaves the protocol here.
func (x *xfer) land(t *Rank) {
	w := t.window(x.ctx)
	if x.buf.i != 0 && w.buf.HasData() {
		copy(w.buf.Data()[x.off:], t.w.recs.data(x.buf).Data())
	}
	if w.perInstance == nil {
		w.perInstance = map[int64]int{}
	}
	w.perInstance[x.instance]++
	t.w.freeXfer(x)
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
	req.rank, req.peer, req.ctx, req.buf.n = int32(r.id), int32(peer), int32(w.ctx), size
	r.charge(p.OPost + p.OSend)
	r.outstanding++
	if !p.RDMA {
		r.charge(p.CopyTime(size))
	}
	x := r.w.allocXfer()
	x.req, x.src, x.dst, x.buf = req.self, int32(r.id), int32(peer), r.w.hold(b.Clone())
	x.ctx, x.off, x.instance = w.ctx, off, instance
	r.proc.DoH(r.w.h.xmit, x.self, 0)
	return req
}
