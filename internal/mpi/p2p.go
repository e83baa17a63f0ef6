package mpi

// Point-to-point messaging: requests, matching, and the eager/rendezvous
// protocol state machines. Matching itself is delegated to the indexed
// engine in match.go; this file keeps the protocol and its modeled costs.

const (
	// AnySource matches a receive against any sender.
	AnySource = -1
	// AnyTag matches a receive against any tag.
	AnyTag = -1
)

// Request is a non-blocking communication request handle. Requests are
// pooled per shard of a World: completed requests returned to the pool (FreeRequests,
// FreeHandles, or the library's own internal frees) are recycled by later
// operations, so steady-state iteration allocates none. A freed request must
// not be touched through its *Request pointer again — hold a ReqHandle when
// completion must be observable past an ownership transfer.
//
// The record holds no pointer: it names its rank by id, every protocol
// record it links to by index (netmodel.Slab) and real payload storage by its
// slot in the world's payload table, so the slab chunks it lives in give the
// collector nothing to trace.
//
// A receive's peer and tag are the filter it was posted with until it
// completes, and the source and tag of the message it matched from then on
// (SrcActual, TagActual): the matcher, done with the receive by then, is the
// one reader of the filter, so the record needs no second pair of fields.
type Request struct {
	rank int32   // the owner's world rank
	peer int32   // destination (send); source filter, at completion the actual source (recv)
	ctx  int32   // peer and ctx fit: checkKey bounds them by maxRanks and maxCtx
	self int32   // this record's index
	tag  int     // a send's tag; a receive's filter, at completion its actual tag
	buf  payload // rendezvous send: the payload; recv: the destination buffer

	matched int32   // send: the matched receive (rendezvous correlation)
	mnext   int32   // the matcher's posted chain or bucket, or the shard's free list
	rtsAt   float64 // send: virtual time the RTS was posted (stall metric)

	// Pooling state: gen increments when the record is freed, invalidating
	// outstanding ReqHandles; freed guards double-free; pseq orders the record
	// in the matcher's posted buckets.
	gen   uint32
	freed bool
	done  bool // beside gen and freed, where it costs no padding
	pseq  uint64
}

// SrcActual returns the rank a completed receive's message came from, the
// actual source of a receive posted with AnySource.
func (req *Request) SrcActual() int { return int(req.peer) }

// TagActual returns the tag of a completed receive's message, the actual tag
// of a receive posted with AnyTag.
func (req *Request) TagActual() int { return req.tag }

// Handle returns a generation-checked reference to the request, valid across
// a FreeRequests/FreeHandles of the underlying record: once freed (which
// requires completion), the handle keeps reading as done instead of
// observing the record's next life.
func (req *Request) Handle() ReqHandle { return ReqHandle{q: req, gen: req.gen} }

// ReqHandle is a generation-checked Request reference (see Request.Handle).
// The zero ReqHandle reads as done.
type ReqHandle struct {
	q   *Request
	gen uint32
}

// Done reports completion; a freed (necessarily completed) request reads as
// done.
func (h ReqHandle) Done() bool {
	return h.q == nil || h.q.gen != h.gen || h.q.done
}

// envelope describes a message in flight. Envelopes are pooled per shard;
// bnext/gprev/gnext thread them through the matcher's unexpected queues, and
// bnext a freed envelope through the shard's free list. Like Request it
// links by index and holds no pointer.
type envelope struct {
	src, dst int32 // world ranks
	ctx      int32
	self     int32 // this record's index
	tag      int
	buf      payload // eager: a private copy of the payload; RTS: its length
	sreq     int32   // sending request (rendezvous correlation)

	bnext        int32 // unexpected-queue bucket FIFO link
	gprev, gnext int32 // unexpected-queue global arrival chain links
}

// Protocol notices are queued per rank and processed at its next MPI
// instant. A notice is a small value struct tagged by kind — not an
// interface — so enqueueing never boxes, and it names its record by index.
type noticeKind uint8

const (
	ntEager noticeKind = iota
	ntRTS
	ntCTS
	ntBulk // a rendezvous payload landed
	ntSendDone
	ntOneSided // a host-attended put landed
	ntWake     // wake a blocked rank so it re-checks its predicate
)

type notice struct {
	kind noticeKind
	// The envelope (ntEager, ntRTS), send request (ntCTS, ntSendDone) or
	// xfer (ntBulk, ntOneSided) the notice is about.
	rec int32
}

// process performs a notice's protocol action in the receiving rank's
// context, charging its CPU cost.
func (n notice) process(r *Rank) {
	p := r.w.recs
	switch n.kind {
	case ntEager:
		r.processEager(p.env(n.rec))
	case ntRTS:
		r.processRTS(p.env(n.rec))
	case ntCTS:
		r.processCTS(p.req(n.rec))
	case ntBulk:
		r.processBulk(p.xf(n.rec))
	case ntSendDone:
		p.req(n.rec).done = true
		r.outstanding--
	case ntOneSided:
		r.processPut(p.xf(n.rec))
	case ntWake:
		// No action: enqueueing already woke the rank.
	}
}

// The protocol's network calls. A rank decides to send while its clock runs
// ahead of the engine's, so the call itself is deferred with Proc.DoH to the
// instant the rank's clock showed (it runs at once when the rank is level).
// Like the delivery entry points below these are methods of the shard,
// registered as engine handlers once (newShard), taking the index of the
// protocol record the message owns anyway — the envelope of an eager payload
// or RTS, the send request of a CTS, the xfer of bulk data or a put — so
// neither deferring nor delivering allocates or holds a pointer. A call runs
// on the shard of the rank that deferred it; a delivery needs only the rank
// table, which every shard shares, and gets the index and the rank to notify,
// so only deliverXfer reads its record.

func (s *shard) xmitEager(i, _ int32) {
	env := s.recs.env(i)
	s.net.TransferH(int(env.src), int(env.dst), int(env.buf.n), s.h.deliverEager, i, env.dst)
}

func (s *shard) xmitRTS(i, _ int32) {
	env := s.recs.env(i)
	s.net.CtrlH(int(env.src), int(env.dst), s.h.deliverRTS, i, env.dst)
}

// xmitCTS runs on the receiver's shard: the send request's peer.
func (s *shard) xmitCTS(i, _ int32) {
	sreq := s.recs.req(i)
	s.net.CtrlH(int(sreq.peer), int(sreq.rank), s.h.deliverCTS, i, sreq.rank)
}

// xfer is a transfer that moves data by itself once started: a rendezvous
// send's bulk data or a put. The receiver's half never reaches through the
// sender's request, which the sender may recycle before the receiver has
// seen the arrival, so the payload is snapshotted when the record is filled.
// Records are pooled like envelopes: drawn from the sender's shard, freed
// into the receiver's when the data leaves the protocol.
type xfer struct {
	req      int32   // the sender's; 0 once xmit completes it at NIC drain
	rreq     int32   // bulk: the matched receive; 0 for a put
	src, dst int32   // world ranks: the origin, which a receive completes with, and the target
	self     int32   // this record's index
	next     int32   // the shard's free list
	tag      int     // bulk: what the receive completes with
	buf      payload // a private copy of the payload
	ctx, off int32   // put: the target window's context and byte offset (CreateWin and PutInstanced bound both)
	instance int64   // put: the collective instance the landing counts for
}

// xmit starts an xfer. Where the network Splits the transfer, the delivery
// fires on the receiver's shard, where the sender's request must not be
// touched: the send completes here instead, when this shard's NIC has
// drained the payload.
func (s *shard) xmit(i, _ int32) {
	x := s.recs.xf(i)
	src, dst := int(x.src), int(x.dst)
	if !s.net.Splits(src, dst) {
		s.net.TransferH(src, dst, int(x.buf.n), s.h.deliverXfer, i, x.dst)
		return
	}
	req := x.req
	x.req = 0
	drain := s.net.TransferH(src, dst, int(x.buf.n), s.h.deliverXfer, i, x.dst)
	s.eng.AtTimeH(drain, s.h.sendDone, req, x.src)
}

// Delivery entry points passed to netmodel: handlers called with a record's
// index and the rank to notify.

func (s *shard) deliverEager(env, dst int32) {
	s.ranks[dst].enqueue(notice{kind: ntEager, rec: env})
}

func (s *shard) deliverRTS(env, dst int32) {
	s.ranks[dst].enqueue(notice{kind: ntRTS, rec: env})
}

func (s *shard) deliverCTS(sreq, rank int32) {
	s.ranks[rank].enqueue(notice{kind: ntCTS, rec: sreq})
}

// deliverXfer lands an xfer: the receiver's notice first, then the sender's
// completion unless xmit already completed it at NIC drain. An RDMA put
// lands here, with no target CPU; a target blocked in a put-counting
// schedule must still observe the arrival.
func (s *shard) deliverXfer(i, to int32) {
	x := s.recs.xf(i)
	req, src, dst := x.req, x.src, s.ranks[to]
	switch {
	case x.rreq != 0:
		dst.enqueue(notice{kind: ntBulk, rec: i})
	case dst.net().Params().RDMA:
		x.land(dst)
		dst.enqueue(notice{kind: ntWake})
	default:
		dst.enqueue(notice{kind: ntOneSided, rec: i})
	}
	if req != 0 {
		s.ranks[src].enqueue(notice{kind: ntSendDone, rec: req})
	}
}

// sendDone completes a send on the sender's own shard at the time its NIC
// drained the payload (xmit's split).
func (s *shard) sendDone(sreq, rank int32) {
	s.ranks[rank].enqueue(notice{kind: ntSendDone, rec: sreq})
}

// completeRecv finishes a receive request with the given payload, which
// lands in the receive's buffer; the library lets go of that buffer here.
func (r *Rank) completeRecv(rreq *Request, src, tag int, data payload) {
	if rreq.buf.i != 0 {
		p := r.w.recs
		Copy(p.data(rreq.buf), p.data(data))
		r.w.release(&rreq.buf)
	}
	rreq.peer, rreq.tag = int32(src), tag
	rreq.done = true
	r.outstanding--
}

func (r *Rank) processEager(env *envelope) {
	p := r.net().Params()
	cost := p.ORecv + p.OMatch*float64(r.m.postedCount)
	if !p.RDMA {
		cost += p.CopyTime(int(env.buf.n))
	}
	r.charge(cost)
	if rreq := r.m.matchArrival(r.w.recs, int(env.ctx), int(env.src), env.tag); rreq != nil {
		r.completeRecv(rreq, int(env.src), env.tag, env.buf)
		r.w.freeEnv(env)
		return
	}
	r.m.eager.push(r.w.recs, env)
}

func (r *Rank) processRTS(env *envelope) {
	p := r.net().Params()
	r.charge(p.ORecv + p.OMatch*float64(r.m.postedCount))
	if rreq := r.m.matchArrival(r.w.recs, int(env.ctx), int(env.src), env.tag); rreq != nil {
		r.sendCTS(rreq, env)
		r.w.freeEnv(env)
		return
	}
	r.m.rts.push(r.w.recs, env)
}

// sendCTS answers a rendezvous RTS: the receive is now matched and the
// clear-to-send control message flows back to the sender.
func (r *Rank) sendCTS(rreq *Request, env *envelope) {
	p := r.net().Params()
	r.charge(p.OSend)
	// The send request is the receiver's to write between RTS and CTS: its
	// sender next looks at it when the CTS arrives.
	sreq := r.w.recs.req(env.sreq)
	sreq.matched = rreq.self
	r.proc.DoH(r.w.h.xmitCTS, sreq.self, 0)
}

func (r *Rank) processCTS(sreq *Request) {
	// The whole RTS→CTS handshake happened while this sender was outside
	// MPI (or blocked): the elapsed time is the rendezvous stall that an
	// extra progress call on either side could have shortened.
	r.rec.RendezvousStall(r.id, r.proc.Now()-sreq.rtsAt)
	p := r.net().Params()
	cost := p.OSend
	if !p.RDMA {
		cost += p.CopyTime(int(sreq.buf.n))
	}
	r.charge(cost)
	// The matched receive is the send's destination's, so its rank is the
	// send's peer and the receive itself stays the receiver's to touch. The
	// xfer takes its own copy of the payload, so the send lets go of it.
	x := r.w.allocXfer()
	x.req, x.rreq, x.src, x.dst, x.tag = sreq.self, sreq.matched, int32(r.id), sreq.peer, sreq.tag
	if x.buf = sreq.buf; x.buf.i != 0 {
		x.buf = r.w.holdData(r.w.recs.data(sreq.buf).Clone())
		r.w.release(&sreq.buf)
	}
	r.proc.DoH(r.w.h.xmit, x.self, 0)
}

func (r *Rank) processBulk(x *xfer) {
	p := r.net().Params()
	cost := p.ORecv
	if !p.RDMA {
		cost += p.CopyTime(int(x.buf.n))
	}
	r.charge(cost)
	r.completeRecv(r.w.recs.req(x.rreq), int(x.src), x.tag, x.buf)
	r.w.freeXfer(x)
}

// isend posts a non-blocking send of b on a context. Virtual payloads
// simulate only b.Len() bytes of timing; no data moves.
func (r *Rank) isend(dst, tag, ctx int, b Buf) *Request {
	size := b.Len()
	r.w.checkKey("isend to", ctx, dst, tag, false)
	checkLen("isend of", size)
	req := r.w.allocReq()
	req.rank, req.peer, req.tag, req.ctx = int32(r.id), int32(dst), tag, int32(ctx)
	p := r.net().Params()
	r.charge(p.OPost)
	if p.Eager(size) {
		// Eager: buffered-send semantics. The sender pays the injection
		// overhead (plus the socket copy on host-attended transports) and
		// the request completes locally; the wire delivery is autonomous.
		cost := p.OSend
		if !p.RDMA {
			cost += p.CopyTime(size)
		}
		r.charge(cost)
		env := r.w.allocEnv()
		env.src, env.dst, env.tag, env.ctx, env.buf = int32(r.id), int32(dst), tag, int32(ctx), r.w.hold(b.Clone())
		r.proc.DoH(r.w.h.xmitEager, env.self, 0)
		req.buf.n = int32(size)
		req.done = true
		return req
	}
	// Rendezvous: send an RTS; everything further requires MPI instants on
	// both sides.
	r.outstanding++
	r.charge(p.OSend)
	req.rtsAt = r.proc.Now()
	req.buf = r.w.hold(b)
	env := r.w.allocEnv()
	env.src, env.dst, env.tag, env.ctx = int32(r.id), int32(dst), tag, int32(ctx)
	env.buf.n, env.sreq = int32(size), req.self
	r.proc.DoH(r.w.h.xmitRTS, env.self, 0)
	return req
}

// irecv posts a non-blocking receive into b on a context.
func (r *Rank) irecv(src, tag, ctx int, b Buf) *Request {
	// Posted anyway it could never match (or would alias another key): a
	// deadlock or a wrong match instead of a bug report.
	r.w.checkKey("irecv from", ctx, src, tag, true)
	checkLen("irecv into", b.Len())
	req := r.w.allocReq()
	req.rank, req.peer, req.tag, req.ctx, req.buf = int32(r.id), int32(src), tag, int32(ctx), r.w.hold(b)
	p := r.net().Params()
	r.charge(p.OPost + p.OMatch*float64(r.m.eager.count+r.m.rts.count))
	r.outstanding++
	// An already-arrived eager message matches at post time.
	if env := r.m.eager.take(r.w.recs, ctx, src, tag); env != nil {
		r.completeRecv(req, int(env.src), env.tag, env.buf)
		r.w.freeEnv(env)
		return req
	}
	// An already-arrived RTS is answered at post time (we are inside MPI).
	if env := r.m.rts.take(r.w.recs, ctx, src, tag); env != nil {
		r.sendCTS(req, env)
		r.w.freeEnv(env)
		return req
	}
	r.m.post(r.w.recs, req)
	return req
}

// Wait blocks inside MPI until all given requests complete.
func (r *Rank) Wait(reqs ...*Request) {
	r.chargeTest()
	r.waitReqs = append(r.waitReqs, reqs...)
	r.waitUntil()
	clear(r.waitReqs) // no stale pointer to a record's next life
	r.waitReqs, r.waitSeen = r.waitReqs[:0], 0
}

// chargeTest charges one progress pass that tests every open request: what
// entering a wait or an explicit progress call costs.
func (r *Rank) chargeTest() {
	p := r.net().Params()
	r.charge(p.OProgress + p.OTest*float64(r.outstanding))
}

// Test performs one progress pass and reports whether all given requests
// have completed.
func (r *Rank) Test(reqs ...*Request) bool {
	r.Progress()
	for _, q := range reqs {
		if !q.done {
			return false
		}
	}
	return true
}

// TestHandles is Test over generation-checked handles.
func (r *Rank) TestHandles(hs []ReqHandle) bool {
	r.Progress()
	for _, h := range hs {
		if !h.Done() {
			return false
		}
	}
	return true
}

// FreeRequests returns completed requests to the shard's pool, where the next
// post draws them. Freeing is optional, but an unfreed request is not
// collected on its own: it lives in a slab chunk, and the chunks are
// reclaimed with the world. Pooled steady-state loops free their requests so
// iteration allocates nothing. Freeing an incomplete request panics; Wait
// first.
func (r *Rank) FreeRequests(reqs ...*Request) {
	for _, q := range reqs {
		r.w.freeReq(q)
	}
}

// FreeHandles returns the completed requests behind still-live handles to
// the pool. Handles whose request was already freed are skipped, so the call
// is idempotent per handle generation.
func (r *Rank) FreeHandles(hs []ReqHandle) {
	for _, h := range hs {
		if h.q != nil && h.q.gen == h.gen {
			r.w.freeReq(h.q)
		}
	}
}
