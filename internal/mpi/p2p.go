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
type Request struct {
	r    *Rank
	peer int // destination (send) or source filter (recv)
	tag  int
	ctx  int
	buf  Buf // payload (send) or destination buffer (recv)
	done bool

	matched *Request // send: the matched receive (rendezvous correlation)
	rtsAt   float64  // send: virtual time the RTS was posted (stall metric)

	// Pooling state: gen increments when the record is freed, invalidating
	// outstanding ReqHandles; freed guards double-free; mnext/pseq thread the
	// record through the matcher's posted chain or buckets, and mnext a freed
	// record through the world's free list.
	gen   uint32
	freed bool
	mnext *Request
	pseq  uint64

	// Actual match metadata, valid for completed receives.
	SrcActual int
	TagActual int
}

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
// bnext a freed envelope through the shard's free list.
type envelope struct {
	src, dst int // world ranks
	tag, ctx int
	buf      Buf
	dstRank  *Rank    // receiver's library state (delivery target)
	sreq     *Request // sending request (rendezvous correlation)

	bnext        *envelope // unexpected-queue bucket FIFO link
	gprev, gnext *envelope // unexpected-queue global arrival chain links
}

// Protocol notices are queued per rank and processed at its next MPI
// instant. A notice is a small value struct tagged by kind — not an
// interface — so enqueueing never boxes.
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
	env  *envelope // ntEager, ntRTS
	sreq *Request  // ntCTS, ntSendDone
	x    *xfer     // ntBulk, ntOneSided
}

// process performs a notice's protocol action in the receiving rank's
// context, charging its CPU cost.
func (n notice) process(r *Rank) {
	switch n.kind {
	case ntEager:
		r.processEager(n.env)
	case ntRTS:
		r.processRTS(n.env)
	case ntCTS:
		r.processCTS(n.sreq)
	case ntBulk:
		r.processBulk(n.x)
	case ntSendDone:
		n.sreq.done = true
		r.outstanding--
	case ntOneSided:
		r.processPut(n.x)
	case ntWake:
		// No action: enqueueing already woke the rank.
	}
}

// The protocol's network calls. A rank decides to send while its clock runs
// ahead of the engine's, so the call itself is deferred with Proc.Do to the
// instant the rank's clock showed (it runs at once when the rank is level).
// Like the delivery entry points below these are package-level functions
// taking the protocol record the message owns anyway — the envelope of an
// eager payload or RTS, the send request of a CTS, the xfer of bulk data or
// a put — so neither deferring nor delivering ever allocates a closure.

// sender returns the library state of the envelope's source rank.
func (env *envelope) sender() *Rank { return env.dstRank.w.ranks[env.src] }

func xmitEager(arg any) {
	env := arg.(*envelope)
	env.sender().net().Transfer(env.src, env.dst, env.buf.Len(), deliverEager, env)
}

func xmitRTS(arg any) {
	env := arg.(*envelope)
	env.sender().net().Ctrl(env.src, env.dst, deliverRTS, env)
}

func xmitCTS(arg any) {
	sreq := arg.(*Request)
	rcv := sreq.matched.r
	rcv.net().Ctrl(rcv.id, sreq.r.id, deliverCTS, sreq)
}

// xfer is a transfer that moves data by itself once started: a rendezvous
// send's bulk data or a put. The receiver's half never reaches through the
// sender's request, which the sender may recycle before the receiver has
// seen the arrival, so the payload is snapshotted when the record is filled.
// Records are pooled like envelopes: drawn from the sender's world, freed
// into the receiver's when the data leaves the protocol.
type xfer struct {
	req      *Request // the sender's; nil once xmit completes it at NIC drain
	dst      *Rank
	rreq     *Request // bulk: the matched receive; nil for a put
	src, tag int      // bulk: what the receive completes with
	buf      Buf
	ctx, off int   // put: the target window's context and byte offset
	instance int64 // put: the collective instance the landing counts for
	next     *xfer // the world's free list
}

// xmit starts an xfer. Where the network Splits the transfer, the delivery
// fires on the receiver's shard, where the sender's request must not be
// touched: the send completes here instead, when this shard's NIC has
// drained the payload.
func xmit(arg any) {
	x := arg.(*xfer)
	req := x.req
	net := req.r.net()
	if !net.Splits(req.r.id, x.dst.id) {
		net.Transfer(req.r.id, x.dst.id, x.buf.Len(), deliverXfer, x)
		return
	}
	x.req = nil
	drain := net.Transfer(req.r.id, x.dst.id, x.buf.Len(), deliverXfer, x)
	req.r.w.eng.AtTimeCall(drain, fireSendDone, req)
}

// Delivery entry points passed to netmodel: package-level functions plus an
// already-held pointer, so no per-message closure is ever allocated.

func deliverEager(arg any) {
	env := arg.(*envelope)
	env.dstRank.enqueue(notice{kind: ntEager, env: env})
}

func deliverRTS(arg any) {
	env := arg.(*envelope)
	env.dstRank.enqueue(notice{kind: ntRTS, env: env})
}

func deliverCTS(arg any) {
	sreq := arg.(*Request)
	sreq.r.enqueue(notice{kind: ntCTS, sreq: sreq})
}

// deliverXfer lands an xfer: the receiver's notice first, then the sender's
// completion unless xmit already completed it at NIC drain. An RDMA put
// lands here, with no target CPU; a target blocked in a put-counting
// schedule must still observe the arrival.
func deliverXfer(arg any) {
	x := arg.(*xfer)
	req, dst := x.req, x.dst
	switch {
	case x.rreq != nil:
		dst.enqueue(notice{kind: ntBulk, x: x})
	case dst.net().Params().RDMA:
		x.land()
		dst.enqueue(notice{kind: ntWake})
	default:
		dst.enqueue(notice{kind: ntOneSided, x: x})
	}
	if req != nil {
		req.r.enqueue(notice{kind: ntSendDone, sreq: req})
	}
}

// fireSendDone completes a send on the sender's own shard at the time its
// NIC drained the payload (xmit's split).
func fireSendDone(arg any) {
	sreq := arg.(*Request)
	sreq.r.enqueue(notice{kind: ntSendDone, sreq: sreq})
}

// completeRecv finishes a receive request with the given payload.
func (r *Rank) completeRecv(rreq *Request, src, tag int, data Buf) {
	Copy(rreq.buf, data)
	rreq.SrcActual, rreq.TagActual = src, tag
	rreq.done = true
	r.outstanding--
}

func (r *Rank) processEager(env *envelope) {
	p := r.net().Params()
	cost := p.ORecv + p.OMatch*float64(r.m.postedCount)
	if !p.RDMA {
		cost += p.CopyTime(env.buf.Len())
	}
	r.charge(cost)
	if rreq := r.m.matchArrival(env.ctx, env.src, env.tag); rreq != nil {
		r.completeRecv(rreq, env.src, env.tag, env.buf)
		r.w.freeEnv(env)
		return
	}
	r.m.eager.push(env)
}

func (r *Rank) processRTS(env *envelope) {
	p := r.net().Params()
	r.charge(p.ORecv + p.OMatch*float64(r.m.postedCount))
	if rreq := r.m.matchArrival(env.ctx, env.src, env.tag); rreq != nil {
		r.sendCTS(rreq, env)
		r.w.freeEnv(env)
		return
	}
	r.m.rts.push(env)
}

// sendCTS answers a rendezvous RTS: the receive is now matched and the
// clear-to-send control message flows back to the sender.
func (r *Rank) sendCTS(rreq *Request, env *envelope) {
	rreq.SrcActual, rreq.TagActual = env.src, env.tag
	p := r.net().Params()
	r.charge(p.OSend)
	// The send request is the receiver's to write between RTS and CTS: its
	// sender next looks at it when the CTS arrives.
	env.sreq.matched = rreq
	r.proc.Do(xmitCTS, env.sreq)
}

func (r *Rank) processCTS(sreq *Request) {
	// The whole RTS→CTS handshake happened while this sender was outside
	// MPI (or blocked): the elapsed time is the rendezvous stall that an
	// extra progress call on either side could have shortened.
	r.rec.RendezvousStall(r.id, r.proc.Now()-sreq.rtsAt)
	p := r.net().Params()
	cost := p.OSend
	if !p.RDMA {
		cost += p.CopyTime(sreq.buf.Len())
	}
	r.charge(cost)
	rreq := sreq.matched
	x := r.w.allocXfer()
	x.req, x.dst, x.rreq, x.src, x.tag, x.buf = sreq, rreq.r, rreq, r.id, sreq.tag, sreq.buf.Clone()
	r.proc.Do(xmit, x)
}

func (r *Rank) processBulk(x *xfer) {
	p := r.net().Params()
	cost := p.ORecv
	if !p.RDMA {
		cost += p.CopyTime(x.buf.Len())
	}
	r.charge(cost)
	r.completeRecv(x.rreq, x.src, x.tag, x.buf)
	r.w.freeXfer(x)
}

// isend posts a non-blocking send of b on a context. Virtual payloads
// simulate only b.Len() bytes of timing; no data moves.
func (r *Rank) isend(dst, tag, ctx int, b Buf) *Request {
	size := b.Len()
	r.w.checkKey("isend to", ctx, dst, tag, false)
	req := r.w.allocReq()
	req.r, req.peer, req.tag, req.ctx, req.buf = r, dst, tag, ctx, b
	p := r.net().Params()
	r.charge(p.OPost)
	dstRank := r.w.ranks[dst]
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
		env.src, env.dst, env.tag, env.ctx = r.id, dst, tag, ctx
		env.buf, env.dstRank = b.Clone(), dstRank
		r.proc.Do(xmitEager, env)
		req.done = true
		return req
	}
	// Rendezvous: send an RTS; everything further requires MPI instants on
	// both sides.
	r.outstanding++
	r.charge(p.OSend)
	req.rtsAt = r.proc.Now()
	env := r.w.allocEnv()
	env.src, env.dst, env.tag, env.ctx = r.id, dst, tag, ctx
	env.buf, env.dstRank, env.sreq = b, dstRank, req
	r.proc.Do(xmitRTS, env)
	return req
}

// irecv posts a non-blocking receive into b on a context.
func (r *Rank) irecv(src, tag, ctx int, b Buf) *Request {
	// Posted anyway it could never match (or would alias another key): a
	// deadlock or a wrong match instead of a bug report.
	r.w.checkKey("irecv from", ctx, src, tag, true)
	req := r.w.allocReq()
	req.r, req.peer, req.tag, req.ctx, req.buf = r, src, tag, ctx, b
	p := r.net().Params()
	r.charge(p.OPost + p.OMatch*float64(r.m.eager.count+r.m.rts.count))
	r.outstanding++
	// An already-arrived eager message matches at post time.
	if env := r.m.eager.take(ctx, src, tag); env != nil {
		r.completeRecv(req, env.src, env.tag, env.buf)
		r.w.freeEnv(env)
		return req
	}
	// An already-arrived RTS is answered at post time (we are inside MPI).
	if env := r.m.rts.take(ctx, src, tag); env != nil {
		r.sendCTS(req, env)
		r.w.freeEnv(env)
		return req
	}
	r.m.post(req)
	return req
}

// Wait blocks inside MPI until all given requests complete.
func (r *Rank) Wait(reqs ...*Request) {
	r.chargeTest()
	r.waitReqs = append(r.waitReqs, reqs...)
	r.waitUntil()
	clear(r.waitReqs) // completed requests stay collectable
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

// FreeRequests returns completed requests to the world's pool. Freeing is
// optional — an unfreed request is garbage-collected normally — but pooled
// steady-state loops free their requests so iteration allocates nothing.
// Freeing an incomplete request panics; Wait first.
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
