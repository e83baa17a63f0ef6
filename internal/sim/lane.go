package sim

// Lane is a FIFO of callbacks that, as a rule, are scheduled in the order they
// fire — the deliveries of one receiving NIC channel, say. Each keeps the
// (time, sequence) key it would have had as an ordinary event, but only the
// lane's head is in the heap, so the queue is as deep as the number of busy
// lanes, not of the callbacks in flight. A firing head is re-keyed where it
// sits to the next callback's key, like a walking wake ticket, or popped once
// the lane drains. An append that would fire before the lane's last callback
// becomes an ordinary event (Engine.LaneFallbacks), so every lane stays
// sorted and the firing order is exact whatever the caller promises. The
// callbacks of all of an engine's lanes share one pool (lanePool), grown in
// chunks that are never copied, with a free list, and a lane's head and tail
// live in the engine too: a Lane is a handle, its engine and its number
// there. The zero Lane is empty and must be bound to its engine before the
// first AppendH.
type Lane struct {
	eng *Engine
	id  int32 // the lane's entry in eng.lanes
}

// laneQ is a bound lane's first and last pending callback in the engine's
// pool, 0 while the lane is empty, and the number of its callbacks that have
// not fired, the ones that fell back to ordinary events included.
type laneQ struct {
	head, tail int32
	n          int32
}

// laneEnt is a pending callback, its key and the index of the callback behind
// it in its lane (once fired, of the next free entry): 32 bytes, no pointer.
type laneEnt struct {
	evKey
	h    Handler
	a, b int32
	next int32
}

// Bind attaches the lane to the engine its callbacks fire on, before the first
// AppendH or while the lane is empty.
func (l *Lane) Bind(e *Engine) {
	if l.eng == e {
		return
	}
	l.eng, l.id = e, int32(len(e.lanes))
	e.lanes = append(e.lanes, laneQ{})
}

// AppendH schedules handler h with (a, b) at absolute virtual time t
// (t >= Now()) under the key Engine.AtTimeH would give it: the next sequence
// number, and the time of the relative-delay round trip, now + (t - now).
func (l *Lane) AppendH(t Time, h Handler, a, b int32) {
	e := l.eng
	l.append(e.due(t-e.now), h, a, b)
}

func (l *Lane) append(t Time, h Handler, a, b int32) {
	e := l.eng
	q := &e.lanes[l.id]
	q.n++
	if q.tail != 0 && t < e.lanePool.at(q.tail).t {
		e.LaneFallbacks++
		r := e.scheduleAt(t, evFallback)
		r.h, r.a, r.b, r.wgen = h, a, b, uint64(l.id)
		return
	}
	e.seq++
	key := evKey{t, e.seq}
	i, ent := e.lanePool.alloc()
	*ent = laneEnt{evKey: key, h: h, a: a, b: b}
	if q.tail == 0 { // the new head takes a place in the heap
		q.head = i
		idx := e.allocRec()
		e.recs[idx].kind, e.recs[idx].a = evLane, l.id
		e.heapPush(mkEnt(key, idx))
	} else {
		e.lanePool.at(q.tail).next = i
	}
	q.tail = i
}

// Pending returns the number of callbacks appended to the lane that have not
// fired yet, fallbacks included: how many deliveries a receiving channel has
// in flight.
func (l Lane) Pending() int { return int(l.eng.lanes[l.id].n) }

// laneNext frees lane id's first callback, its head being the top of the
// queue, re-keys the head to the callback behind it or pops it, and returns
// what to call.
func (e *Engine) laneNext(id int32) (Handler, int32, int32) {
	q := &e.lanes[id]
	q.n--
	p := &e.lanePool
	i := q.head
	ent := p.at(i)
	h, a, b, behind := ent.h, ent.a, ent.b, ent.next
	ent.next = p.free
	p.free = i
	if q.head = behind; behind != 0 {
		e.heap[0] = mkEnt(p.at(behind).evKey, e.heap[0].rec())
		e.siftDown()
	} else {
		q.tail = 0
		e.heapPop()
	}
	return h, a, b
}

// lanePool holds the callbacks of every lane of an engine. It grows the way
// netmodel.Slab does: a first chunk of laneFirst entries, each next one twice
// the last up to laneChunk entries (32 KiB, the largest size the runtime
// serves from its per-size caches), then chunks of that size. A chunk is never
// copied or dropped, so growing the pool to N entries allocates at most N plus
// one chunk, and an entry's index names its chunk and its slot: index
// c<<laneSlotBits | s is slot s of chunks[c]. chunks[0] is nil, so index 0
// names no entry, every lane's "none". Entries freed by laneNext are reused
// first, through their next links.
type lanePool struct {
	chunks [][]laneEnt
	used   int32 // entries of the last chunk handed out
	free   int32 // first free entry, chained through next; 0: none
}

const (
	laneSlotBits = 10
	laneChunk    = 1 << laneSlotBits
	laneFirst    = 16
)

// at returns entry i, which alloc handed out.
func (p *lanePool) at(i int32) *laneEnt {
	return &p.chunks[i>>laneSlotBits][i&(laneChunk-1)]
}

// alloc returns a free entry and its index: the last one freed, or the next
// of the last chunk, carving a new chunk when that one is full.
func (p *lanePool) alloc() (int32, *laneEnt) {
	if i := p.free; i != 0 {
		ent := p.at(i)
		p.free = ent.next
		return i, ent
	}
	c := len(p.chunks) - 1
	if c < 1 || int(p.used) == len(p.chunks[c]) {
		n := laneFirst
		if c < 1 {
			p.chunks = append(p.chunks, nil) // chunk 0, which index 0 would name
		} else {
			n = min(2*len(p.chunks[c]), laneChunk)
		}
		if len(p.chunks) == 1<<(31-laneSlotBits) {
			panic("sim: 2^21 chunks of lane entries (about 2.1e9 callbacks) are in flight, all an index can name")
		}
		p.chunks = append(p.chunks, make([]laneEnt, n))
		p.used, c = 0, len(p.chunks)-1
	}
	i := int32(c)<<laneSlotBits | p.used
	p.used++
	return i, &p.chunks[c][i&(laneChunk-1)]
}
