package mpi

// Aliases for the external test package: the record sizes it pins include
// these two unexported ones.
type (
	Envelope = envelope
	Xfer     = xfer
)

// refsTo counts the slots the library owns that hold q: on every rank, each
// notice up to the queue's capacity (the envelope or xfer a notice carries
// included), the wait lists and the collectives' scratch list up to theirs,
// the matcher's posted chain and buckets and the send requests of the
// envelopes in its unexpected queues; on every shard, each record on its
// free lists. A completed request nothing outside the library holds is
// collectable exactly when refsTo is 0.
func (w *World) refsTo(q *Request) int {
	n := 0
	hold := func(p *Request) {
		if p == q {
			n++
		}
	}
	holdEnv := func(env *envelope) {
		if env != nil {
			hold(env.sreq)
		}
	}
	holdX := func(x *xfer) {
		if x != nil {
			hold(x.req)
			hold(x.rreq)
		}
	}
	holdList := func(l reqList) {
		for p := l.head; p != nil; p = p.mnext {
			hold(p)
		}
		hold(l.tail)
	}
	for _, r := range w.ranks {
		for _, nt := range r.notices[:cap(r.notices)] {
			hold(nt.sreq)
			holdEnv(nt.env)
			holdX(nt.x)
		}
		for _, p := range r.waitReqs[:cap(r.waitReqs)] {
			hold(p)
		}
		for _, h := range r.waitHs[:cap(r.waitHs)] {
			hold(h.q)
		}
		for _, p := range r.scratch[:cap(r.scratch)] {
			hold(p)
		}
		holdList(r.m.chain)
		for _, l := range r.m.posted {
			holdList(l)
		}
		for _, u := range []*unexpQueue{&r.m.eager, &r.m.rts} {
			for env := u.ghead; env != nil; env = env.gnext {
				holdEnv(env)
			}
		}
	}
	for _, s := range w.shards {
		for p := s.reqFree; p != nil; p = p.mnext {
			hold(p)
			hold(p.matched)
		}
		for env := s.envFree; env != nil; env = env.bnext {
			holdEnv(env)
		}
		for x := s.xfFree; x != nil; x = x.next {
			holdX(x)
		}
	}
	return n
}
