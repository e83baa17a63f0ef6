package mpi

// Indexed message matching. This replaces the linear postedRecvs /
// unexpEager / unexpRTS scans with hash-bucketed FIFO match lists, giving
// O(1) expected matching regardless of how many receives are posted, while
// reproducing the linear engine's matching decisions exactly (the
// matching-order property test drives both engines in lockstep; see
// matchref.go and DESIGN.md §3 "matching engine").
//
// Two invariants govern this file:
//
//  1. Posted-order matching. An arriving message matches the EARLIEST-POSTED
//     receive it is eligible for, and a freshly posted receive consumes the
//     EARLIEST-ARRIVED unexpected envelope it is eligible for — exactly what
//     a front-to-back scan of an insertion-ordered queue yields. MPI's
//     non-overtaking rule per directed (source, tag) pair follows.
//
//  2. Modeled cost ≠ host cost. The virtual-time cost of matching is still
//     charged as OMatch × queue length (Open MPI 1.6's linear engine, which
//     S3 models — see netmodel.Params.OMatch); the counters below exist so
//     the callers can keep charging that exact formula. Only the host-side
//     cost of computing the match is O(1) now. No virtual timestamp moves.
type matchKey struct {
	ctx, src, tag int
}

// reqList is a FIFO of posted receives sharing one match key, linked through
// Request.mnext. Emptied lists are recycled through matcher.freeRL so
// steady-state posting allocates nothing.
type reqList struct {
	head, tail *Request
}

// matcher indexes one rank's posted receives and unexpected envelopes.
type matcher struct {
	// posted buckets receives by the (ctx, peer, tag) triple they were
	// posted with; wildcard receives use the raw AnySource/AnyTag values as
	// ordinary key components. An arriving message can therefore match at
	// most four buckets: {src,tag}, {*,tag}, {src,*}, {*,*}.
	posted      map[matchKey]*reqList
	postedCount int // total posted receives (modeled-cost counter)
	postedWild  int // posted receives with at least one wildcard
	pseq        uint64
	freeRL      []*reqList

	eager unexpQueue // arrived eager messages with no matching receive
	rts   unexpQueue // arrived RTS envelopes with no matching receive
}

// The matcher's hash maps are created lazily on first insertion — a nil map
// reads as empty in Go, so the lookup paths (matchArrival, find) need no
// guards, and an idle rank carries no map headers at all. A 16K-rank world
// where only a subset of ranks communicate pays for exactly the maps it uses.

// post indexes a receive. Its position in posted order is stamped into
// req.pseq so concurrent buckets can be merged by age.
func (m *matcher) post(req *Request) {
	m.pseq++
	req.pseq = m.pseq
	req.mnext = nil
	k := matchKey{req.ctx, req.peer, req.tag}
	if m.posted == nil {
		m.posted = map[matchKey]*reqList{}
	}
	l := m.posted[k]
	if l == nil {
		if n := len(m.freeRL); n > 0 {
			l = m.freeRL[n-1]
			m.freeRL = m.freeRL[:n-1]
		} else {
			l = &reqList{}
		}
		m.posted[k] = l
	}
	if l.tail == nil {
		l.head = req
	} else {
		l.tail.mnext = req
	}
	l.tail = req
	m.postedCount++
	if req.peer == AnySource || req.tag == AnyTag {
		m.postedWild++
	}
}

// matchArrival removes and returns the earliest-posted receive eligible for
// a message with concrete (ctx, src, tag), or nil. Each candidate bucket is
// FIFO, so comparing the four bucket heads by pseq finds the global
// earliest-posted match.
func (m *matcher) matchArrival(ctx, src, tag int) *Request {
	var best *Request
	bestK := matchKey{ctx, src, tag}
	if l := m.posted[bestK]; l != nil {
		best = l.head
	}
	if m.postedWild > 0 {
		for _, k := range [3]matchKey{
			{ctx, AnySource, tag},
			{ctx, src, AnyTag},
			{ctx, AnySource, AnyTag},
		} {
			if l := m.posted[k]; l != nil && (best == nil || l.head.pseq < best.pseq) {
				best, bestK = l.head, k
			}
		}
	}
	if best == nil {
		return nil
	}
	m.popPosted(bestK)
	return best
}

// popPosted removes the head of a posted bucket, recycling the bucket when
// it empties so the map's live key set tracks only occupied keys (rotating
// collective tags would otherwise grow it without bound).
func (m *matcher) popPosted(k matchKey) {
	l := m.posted[k]
	q := l.head
	l.head = q.mnext
	q.mnext = nil
	if l.head == nil {
		l.tail = nil
		delete(m.posted, k)
		m.freeRL = append(m.freeRL, l)
	}
	m.postedCount--
	if q.peer == AnySource || q.tag == AnyTag {
		m.postedWild--
	}
}

// envList is a FIFO of unexpected envelopes sharing one concrete match key,
// linked through envelope.bnext.
type envList struct {
	head, tail *envelope
}

// unexpQueue holds arrived-but-unmatched envelopes of one protocol class
// (eager or RTS). Envelopes live in two structures at once: a per-key FIFO
// bucket for O(1) concrete-receive lookup, and a global arrival-ordered
// doubly-linked chain that wildcard receives walk. Because bucket order is a
// subsequence of global arrival order and all bucket-mates match identically,
// the earliest matching envelope found on the global chain is always its
// bucket's head — remove() asserts this.
type unexpQueue struct {
	buckets      map[matchKey]*envList
	ghead, gtail *envelope
	count        int // modeled-cost counter
	freeEL       []*envList
}

func (u *unexpQueue) push(env *envelope) {
	k := matchKey{env.ctx, env.src, env.tag}
	if u.buckets == nil {
		u.buckets = map[matchKey]*envList{}
	}
	l := u.buckets[k]
	if l == nil {
		if n := len(u.freeEL); n > 0 {
			l = u.freeEL[n-1]
			u.freeEL = u.freeEL[:n-1]
		} else {
			l = &envList{}
		}
		u.buckets[k] = l
	}
	env.bnext = nil
	if l.tail == nil {
		l.head = env
	} else {
		l.tail.bnext = env
	}
	l.tail = env
	env.gprev, env.gnext = u.gtail, nil
	if u.gtail == nil {
		u.ghead = env
	} else {
		u.gtail.gnext = env
	}
	u.gtail = env
	u.count++
}

// find returns the earliest-arrived envelope a receive posted with
// (ctx, peer, tag) would match, without removing it. peer and tag may be
// wildcards; a fully concrete receive matches exactly one bucket.
func (u *unexpQueue) find(ctx, peer, tag int) *envelope {
	if u.count == 0 {
		return nil
	}
	if peer != AnySource && tag != AnyTag {
		if l := u.buckets[matchKey{ctx, peer, tag}]; l != nil {
			return l.head
		}
		return nil
	}
	for env := u.ghead; env != nil; env = env.gnext {
		if env.ctx == ctx &&
			(peer == AnySource || env.src == peer) &&
			(tag == AnyTag || env.tag == tag) {
			return env
		}
	}
	return nil
}

// take is find plus removal.
func (u *unexpQueue) take(ctx, peer, tag int) *envelope {
	env := u.find(ctx, peer, tag)
	if env != nil {
		u.remove(env)
	}
	return env
}

func (u *unexpQueue) remove(env *envelope) {
	k := matchKey{env.ctx, env.src, env.tag}
	l := u.buckets[k]
	if l == nil || l.head != env {
		panic("mpi: unexpected-queue removal out of bucket order")
	}
	l.head = env.bnext
	if l.head == nil {
		l.tail = nil
		delete(u.buckets, k)
		u.freeEL = append(u.freeEL, l)
	}
	if env.gprev == nil {
		u.ghead = env.gnext
	} else {
		env.gprev.gnext = env.gnext
	}
	if env.gnext == nil {
		u.gtail = env.gprev
	} else {
		env.gnext.gprev = env.gprev
	}
	env.bnext, env.gprev, env.gnext = nil, nil, nil
	u.count--
}
