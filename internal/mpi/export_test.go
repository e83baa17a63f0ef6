package mpi

// Aliases for the external test package: the record sizes it pins and the
// pointer-free records it walks include these unexported ones.
type (
	Envelope = envelope
	Xfer     = xfer
	Notice   = notice
	Matcher  = matcher
	Payload  = payload
	ReqList  = reqList
	KeySlot  = keySlot
)

// refsTo counts the slots the library owns that name q: on every rank, each
// notice up to the queue's capacity (the envelope or xfer a notice names
// included), the wait lists and the collectives' scratch list up to theirs,
// the matcher's posted chain and buckets and the send requests of the
// envelopes in its unexpected queues; on every shard, each record on its
// free lists. A completed request nothing outside the library holds is free
// of stale names exactly when refsTo is 0: none can alias the record's next
// life once it is freed and drawn again.
func (w *World) refsTo(q *Request) int {
	p := w.shards[0].recs
	n := 0
	hold := func(i int32) {
		if i == q.self {
			n++
		}
	}
	holdPtr := func(r *Request) {
		if r == q {
			n++
		}
	}
	holdX := func(x *xfer) {
		hold(x.req)
		hold(x.rreq)
	}
	holdList := func(l reqList) {
		for i := l.head; i != 0; i = p.req(i).mnext {
			hold(i)
		}
		hold(l.tail)
	}
	for _, r := range w.ranks {
		for _, nt := range r.notices[:cap(r.notices)] {
			if nt.rec == 0 {
				continue
			}
			switch nt.kind {
			case ntCTS, ntSendDone:
				hold(nt.rec)
			case ntEager, ntRTS:
				hold(p.env(nt.rec).sreq)
			case ntBulk, ntOneSided:
				holdX(p.xf(nt.rec))
			}
		}
		for _, r := range r.waitReqs[:cap(r.waitReqs)] {
			holdPtr(r)
		}
		for _, h := range r.waitHs[:cap(r.waitHs)] {
			holdPtr(h.q)
		}
		for _, r := range r.scratch[:cap(r.scratch)] {
			holdPtr(r)
		}
		holdList(r.m.chain)
		if x := r.m.posted; x != nil {
			for _, s := range x.slots {
				if s.head != 0 {
					holdList(reqList{s.head, s.tail})
				}
			}
		}
		for _, u := range []*unexpQueue{&r.m.eager, &r.m.rts} {
			for i := u.ghead; i != 0; i = p.env(i).gnext {
				hold(p.env(i).sreq)
			}
		}
	}
	for _, s := range w.shards {
		for i := s.reqFree; i != 0; i = p.req(i).mnext {
			hold(i)
			hold(p.req(i).matched)
		}
		for i := s.envFree; i != 0; i = p.env(i).bnext {
			hold(p.env(i).sreq)
		}
		for i := s.xfFree; i != 0; i = p.xf(i).next {
			holdX(p.xf(i))
		}
	}
	return n
}
