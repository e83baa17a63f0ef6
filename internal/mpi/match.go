package mpi

// Message matching. A shallow queue is an insertion-ordered chain scanned
// front to back, exactly like the linear engine it models; once a queue grows
// past the depth shallow, it is indexed by FIFO match lists in a map keyed by
// one packed word, so matching stays O(1) expected however many receives are
// posted. Both reproduce the linear engine's matching decisions exactly (the
// matching-order property test and FuzzMatch drive this matcher and the
// linear reference in lockstep; see matchref.go and DESIGN.md §3
// "Matching").
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

// A matchKey packs (ctx, src, tag) into one word, so the matcher's maps take
// the runtime's 64-bit fast path instead of hashing a three-int struct. The
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
// whose push takes it past shallow moves into its map; the map empties, and
// the queue returns to its chain, when the queue drains. A queue is therefore
// in map mode exactly when its map is non-empty.
const shallow = 16

// reqList is a FIFO of posted receives linked through Request.mnext: the
// posted chain, or one map bucket. Buckets are stored in their map by value,
// so a new key costs a map slot and nothing else, and a steady state that
// reuses its keys allocates nothing. The links are record indices (0: none),
// resolved against the world's records, so neither a list nor the map that
// holds it has a pointer for the collector to trace.
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
	posted      map[matchKey]reqList
	postedCount int // total posted receives (modeled-cost counter)
	postedWild  int // posted receives with at least one wildcard
	pseq        uint64

	eager unexpQueue // arrived eager messages with no matching receive
	rts   unexpQueue // arrived RTS envelopes with no matching receive
}

// Nothing here is allocated ahead of use. A nil map reads as empty in Go, so
// an idle rank keeps nil maps and empty chains: its matcher is the zero value
// inside its Rank record, and a 16K-rank world where only a subset of ranks
// communicate pays for exactly the maps it uses
// (TestIdleWorldFootprint16K). A map is made the first time its queue grows
// past shallow and kept, empty, when the queue drains, so a queue that swings
// across shallow again reuses it.

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
	if len(m.posted) == 0 {
		if m.postedCount <= shallow {
			m.chain.push(p, req)
			return
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

// bucket appends a receive to its map bucket.
func (m *matcher) bucket(p *records, req *Request) {
	k := keyOf(int(req.ctx), int(req.peer), req.tag)
	if m.posted == nil {
		m.posted = map[matchKey]reqList{}
	}
	l := m.posted[k]
	l.push(p, req)
	m.posted[k] = l
}

// matchArrival removes and returns the earliest-posted receive eligible for
// a message with concrete (ctx, src, tag), or nil. On the chain that is the
// first eligible receive; in map mode each candidate bucket is FIFO, so
// comparing the four bucket heads by pseq finds the global earliest-posted
// match.
func (m *matcher) matchArrival(p *records, ctx, src, tag int) *Request {
	if len(m.posted) == 0 {
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
	bestK := keyOf(ctx, src, tag)
	bestL := m.posted[bestK]
	var best *Request
	if bestL.head != 0 {
		best = p.req(bestL.head)
	}
	if m.postedWild > 0 {
		for _, k := range [3]matchKey{
			keyOf(ctx, AnySource, tag),
			keyOf(ctx, src, AnyTag),
			keyOf(ctx, AnySource, AnyTag),
		} {
			if l := m.posted[k]; l.head != 0 {
				if q := p.req(l.head); best == nil || q.pseq < best.pseq {
					best, bestK, bestL = q, k, l
				}
			}
		}
	}
	if best == nil {
		return nil
	}
	m.popPosted(bestK, bestL, best)
	return best
}

// popPosted removes q, the head of the posted bucket l under key k, deleting
// the bucket when it empties so the map's live key set tracks only occupied
// keys (rotating collective tags would otherwise grow it without bound). The
// last bucket to go leaves the map empty and the queue back on its chain.
func (m *matcher) popPosted(k matchKey, l reqList, q *Request) {
	l.head, q.mnext = q.mnext, 0
	if l.head == 0 {
		delete(m.posted, k)
	} else {
		m.posted[k] = l
	}
	m.unpost(q)
}

func (m *matcher) unpost(q *Request) {
	m.postedCount--
	if q.peer == AnySource || q.tag == AnyTag {
		m.postedWild--
	}
}

// envList is a FIFO of unexpected envelopes sharing one concrete match key,
// linked through envelope.bnext; stored by value like reqList.
type envList struct {
	head, tail int32
}

// unexpQueue holds arrived-but-unmatched envelopes of one protocol class
// (eager or RTS) on a global arrival-ordered doubly-linked chain. While the
// queue is at most shallow deep, every receive scans that chain. Deeper, each
// envelope also sits in a per-key FIFO bucket for O(1) concrete-receive
// lookup, and only wildcard receives walk the chain. Because bucket order is
// a subsequence of arrival order and all bucket-mates match identically, the
// earliest matching envelope on the chain is always its bucket's head —
// remove() asserts this. Links are record indices, as in reqList.
type unexpQueue struct {
	buckets      map[matchKey]envList
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
	if len(u.buckets) > 0 {
		u.bucket(p, env)
	} else if u.count > shallow {
		for i := u.ghead; i != 0; {
			e := p.env(i)
			u.bucket(p, e)
			i = e.gnext
		}
	}
}

// bucket appends an envelope to its map bucket.
func (u *unexpQueue) bucket(p *records, env *envelope) {
	k := keyOf(int(env.ctx), int(env.src), env.tag)
	if u.buckets == nil {
		u.buckets = map[matchKey]envList{}
	}
	l := u.buckets[k]
	env.bnext = 0
	if l.tail == 0 {
		l.head = env.self
	} else {
		p.env(l.tail).bnext = env.self
	}
	l.tail = env.self
	u.buckets[k] = l
}

// find returns the earliest-arrived envelope a receive posted with
// (ctx, peer, tag) would match, without removing it. peer and tag may be
// wildcards; in map mode a fully concrete receive matches exactly one bucket.
func (u *unexpQueue) find(p *records, ctx, peer, tag int) *envelope {
	if peer != AnySource && tag != AnyTag && len(u.buckets) > 0 {
		if h := u.buckets[keyOf(ctx, peer, tag)].head; h != 0 {
			return p.env(h)
		}
		return nil
	}
	for i := u.ghead; i != 0; {
		env := p.env(i)
		if int(env.ctx) == ctx &&
			(peer == AnySource || int(env.src) == peer) &&
			(tag == AnyTag || env.tag == tag) {
			return env
		}
		i = env.gnext
	}
	return nil
}

// take is find plus removal.
func (u *unexpQueue) take(p *records, ctx, peer, tag int) *envelope {
	env := u.find(p, ctx, peer, tag)
	if env != nil {
		u.remove(p, env)
	}
	return env
}

func (u *unexpQueue) remove(p *records, env *envelope) {
	if len(u.buckets) > 0 {
		k := keyOf(int(env.ctx), int(env.src), env.tag)
		l := u.buckets[k]
		if l.head != env.self {
			panic("mpi: unexpected-queue removal out of bucket order")
		}
		l.head = env.bnext
		if l.head == 0 {
			delete(u.buckets, k)
		} else {
			u.buckets[k] = l
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
