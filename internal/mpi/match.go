package mpi

// Message matching. A shallow queue is an insertion-ordered chain scanned
// front to back, exactly like the linear engine it models; once a queue grows
// past the depth shallow, it is indexed by FIFO match lists in a keyIndex
// (keyindex.go) keyed by one packed word, so matching stays O(1) expected
// however many receives are posted. Both reproduce the linear engine's
// matching decisions exactly (the matching-order property test and FuzzMatch
// drive this matcher and the linear reference in lockstep; see matchref.go
// and DESIGN.md §3 "Matching").
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
//     the callers can keep charging that exact formula, whichever structure
//     holds the queue. Only the host-side cost of computing the match
//     changes. No virtual timestamp moves.
type matchKey uint64

// A matchKey packs (ctx, src, tag) into one word, so the matcher's index
// hashes and compares one integer instead of a three-int struct. The
// rank and tag are stored +1, so the wildcards AnySource and AnyTag (-1) pack
// as zero fields. The bounds are checked, not assumed: checkKey refuses
// anything else at isend, irecv and World.Start, and comm.go's highest tag
// (TestMatchKeyBounds) sits below maxTag.
const (
	tagBits = 34
	srcBits = 18
	ctxBits = 64 - tagBits - srcBits

	maxTag   = 1<<tagBits - 2 // tag+1 fills the field
	maxRanks = 1<<srcBits - 1 // ranks 0..maxRanks-1, so src+1 fits
	maxCtx   = 1<<ctxBits - 1
)

func keyOf(ctx, src, tag int) matchKey {
	return matchKey(ctx)<<(srcBits+tagBits) | matchKey(src+1)<<tagBits | matchKey(tag+1)
}

// shallow is the depth up to which a queue lives only in its chain. A queue
// whose push takes it past shallow moves into its index; the index empties,
// and the queue returns to its chain, when the queue drains. A queue is
// therefore in index mode exactly when its index is live.
const shallow = 16

// reqList is the posted chain: a FIFO of posted receives linked through
// Request.mnext. A bucket of the index is the same pair of links in its
// keySlot, so a new key costs a slot and nothing else, and a steady state
// that reuses its keys allocates nothing. The links are record indices
// (0: none), resolved against the world's records, so neither the chain nor
// the index has a pointer for the collector to trace.
type reqList struct {
	head, tail int32
}

func (l *reqList) push(p *records, req *Request) {
	if l.tail == 0 {
		l.head = req.self
	} else {
		p.req(l.tail).mnext = req.self
	}
	l.tail = req.self
}

// matcher holds one rank's posted receives and unexpected envelopes.
type matcher struct {
	// chain holds the posted receives in posted order while there are at
	// most shallow of them. Past that, posted buckets them by the
	// (ctx, peer, tag) triple they were posted with; wildcard receives use
	// the AnySource/AnyTag key fields like any other value. An arriving
	// message can therefore match at most four buckets: {src,tag},
	// {*,tag}, {src,*}, {*,*}.
	chain       reqList
	posted      *keyIndex // nil until the posted queue first passes shallow
	postedCount int       // total posted receives (modeled-cost counter)
	postedWild  int       // posted receives with at least one wildcard
	pseq        uint64

	eager unexpQueue // arrived eager messages with no matching receive
	rts   unexpQueue // arrived RTS envelopes with no matching receive
}

// Nothing here is allocated ahead of use. Each queue holds its index behind
// one pointer, nil until the queue first grows past shallow, so an idle rank
// keeps nil indexes and empty chains: its matcher is the zero value inside
// its Rank record, and a 16K-rank world where only a subset of ranks
// communicate pays for exactly the indexes it uses
// (TestIdleWorldFootprint16K). An index is kept, empty, when its queue
// drains, so a queue that swings across shallow again reuses it and its
// grown table (TestMatcherSteadyStateAllocs).

// post queues a receive. Its position in posted order is stamped into
// req.pseq so concurrent buckets can be merged by age.
func (m *matcher) post(p *records, req *Request) {
	m.pseq++
	req.pseq = m.pseq
	req.mnext = 0
	m.postedCount++
	if req.peer == AnySource || req.tag == AnyTag {
		m.postedWild++
	}
	if !m.posted.live() {
		if m.postedCount <= shallow {
			m.chain.push(p, req)
			return
		}
		if m.posted == nil {
			m.posted = newKeyIndex(p.slots)
		}
		for i := m.chain.head; i != 0; {
			q := p.req(i)
			i, q.mnext = q.mnext, 0
			m.bucket(p, q)
		}
		m.chain = reqList{}
	}
	m.bucket(p, req)
}

// bucket appends a receive to its key's list in the index.
func (m *matcher) bucket(p *records, req *Request) {
	s := m.posted.claim(keyOf(int(req.ctx), int(req.peer), req.tag))
	if s.tail == 0 {
		s.head = req.self
	} else {
		p.req(s.tail).mnext = req.self
	}
	s.tail = req.self
}

// matchArrival removes and returns the earliest-posted receive eligible for
// a message with concrete (ctx, src, tag), or nil. On the chain that is the
// first eligible receive; in index mode each candidate bucket is FIFO, so
// comparing the four bucket heads by pseq finds the global earliest-posted
// match, whose slot goes to popPosted without a second lookup.
func (m *matcher) matchArrival(p *records, ctx, src, tag int) *Request {
	x := m.posted
	if !x.live() {
		var prev *Request
		for i := m.chain.head; i != 0; {
			q := p.req(i)
			if int(q.ctx) == ctx && (int(q.peer) == src || q.peer == AnySource) && (q.tag == tag || q.tag == AnyTag) {
				if prev == nil {
					m.chain.head = q.mnext
				} else {
					prev.mnext = q.mnext
				}
				if m.chain.tail == i {
					m.chain.tail = 0
					if prev != nil {
						m.chain.tail = prev.self
					}
				}
				q.mnext = 0
				m.unpost(q)
				return q
			}
			prev, i = q, q.mnext
		}
		return nil
	}
	var best *Request
	bestS := x.find(keyOf(ctx, src, tag))
	if bestS >= 0 {
		best = p.req(x.slots[bestS].head)
	}
	if m.postedWild > 0 {
		for _, k := range [3]matchKey{
			keyOf(ctx, AnySource, tag),
			keyOf(ctx, src, AnyTag),
			keyOf(ctx, AnySource, AnyTag),
		} {
			if s := x.find(k); s >= 0 {
				if q := p.req(x.slots[s].head); best == nil || q.pseq < best.pseq {
					best, bestS = q, s
				}
			}
		}
	}
	if best == nil {
		return nil
	}
	m.popPosted(bestS, best)
	return best
}

// popPosted removes q, the head of the posted bucket in slot s, deleting the
// bucket when it empties so the index's live key set tracks only occupied
// keys (rotating collective tags would otherwise grow it without bound). The
// last bucket to go leaves the index empty and the queue back on its chain.
func (m *matcher) popPosted(s int, q *Request) {
	l := &m.posted.slots[s]
	l.head, q.mnext = q.mnext, 0
	if l.head == 0 {
		m.posted.del(s)
	}
	m.unpost(q)
}

func (m *matcher) unpost(q *Request) {
	m.postedCount--
	if q.peer == AnySource || q.tag == AnyTag {
		m.postedWild--
	}
}

// unexpQueue holds arrived-but-unmatched envelopes of one protocol class
// (eager or RTS) on a global arrival-ordered doubly-linked chain. While the
// queue is at most shallow deep, every receive scans that chain. Deeper, each
// envelope also sits in a per-key FIFO bucket for O(1) concrete-receive
// lookup, and only wildcard receives walk the chain. Because bucket order is
// a subsequence of arrival order and all bucket-mates match identically, the
// earliest matching envelope on the chain is always its bucket's head —
// remove() asserts this. Links are record indices, as in reqList; the
// buckets are keySlots of idx, linked through envelope.bnext.
type unexpQueue struct {
	idx          *keyIndex // nil until the queue first passes shallow
	ghead, gtail int32
	count        int // modeled-cost counter
}

func (u *unexpQueue) push(p *records, env *envelope) {
	env.gprev, env.gnext = u.gtail, 0
	if u.gtail == 0 {
		u.ghead = env.self
	} else {
		p.env(u.gtail).gnext = env.self
	}
	u.gtail = env.self
	u.count++
	if u.idx.live() {
		u.bucket(p, env)
	} else if u.count > shallow {
		if u.idx == nil {
			u.idx = newKeyIndex(p.slots)
		}
		for i := u.ghead; i != 0; {
			e := p.env(i)
			u.bucket(p, e)
			i = e.gnext
		}
	}
}

// bucket appends an envelope to its key's list in the index.
func (u *unexpQueue) bucket(p *records, env *envelope) {
	l := u.idx.claim(keyOf(int(env.ctx), int(env.src), env.tag))
	env.bnext = 0
	if l.tail == 0 {
		l.head = env.self
	} else {
		p.env(l.tail).bnext = env.self
	}
	l.tail = env.self
}

// find returns the earliest-arrived envelope a receive posted with
// (ctx, peer, tag) would match, without removing it, and the slot of its
// bucket when the lookup named one (else -1). peer and tag may be wildcards;
// in index mode a fully concrete receive matches exactly one bucket.
func (u *unexpQueue) find(p *records, ctx, peer, tag int) (*envelope, int) {
	if peer != AnySource && tag != AnyTag && u.idx.live() {
		if s := u.idx.find(keyOf(ctx, peer, tag)); s >= 0 {
			return p.env(u.idx.slots[s].head), s
		}
		return nil, -1
	}
	for i := u.ghead; i != 0; {
		env := p.env(i)
		if int(env.ctx) == ctx &&
			(peer == AnySource || int(env.src) == peer) &&
			(tag == AnyTag || env.tag == tag) {
			return env, -1
		}
		i = env.gnext
	}
	return nil, -1
}

// take is find plus removal.
func (u *unexpQueue) take(p *records, ctx, peer, tag int) *envelope {
	env, s := u.find(p, ctx, peer, tag)
	if env != nil {
		u.remove(p, env, s)
	}
	return env
}

// remove unlinks env, the head of its bucket in index mode: slot s when find
// named it, else looked up here (a wildcard receive found env on the chain).
func (u *unexpQueue) remove(p *records, env *envelope, s int) {
	if u.idx.live() {
		if s < 0 {
			s = u.idx.find(keyOf(int(env.ctx), int(env.src), env.tag))
		}
		if s < 0 || u.idx.slots[s].head != env.self {
			panic("mpi: unexpected-queue removal out of bucket order")
		}
		l := &u.idx.slots[s]
		if l.head = env.bnext; l.head == 0 {
			u.idx.del(s)
		}
	}
	if env.gprev == 0 {
		u.ghead = env.gnext
	} else {
		p.env(env.gprev).gnext = env.gnext
	}
	if env.gnext == 0 {
		u.gtail = env.gprev
	} else {
		p.env(env.gnext).gprev = env.gprev
	}
	env.bnext, env.gprev, env.gnext = 0, 0, 0
	u.count--
}
