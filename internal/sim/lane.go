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
// callbacks of all of an engine's lanes share one pool, grown by doubling,
// with a free list, and a lane's head and tail live in the engine too: a Lane
// is a handle, its engine and its number there. The zero Lane is empty and
// must be bound to its engine before the first AppendH.
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
	if q.tail != 0 && t < e.lanePool[q.tail].t {
		e.LaneFallbacks++
		r := e.scheduleAt(t, evFallback)
		r.h, r.a, r.b, r.wgen = h, a, b, uint64(l.id)
		return
	}
	e.seq++
	key := evKey{t, e.seq}
	i := e.laneFree
	if i != 0 {
		e.laneFree = e.lanePool[i].next
	} else {
		if len(e.lanePool) == cap(e.lanePool) {
			// Double: append grows a large slice by 1.25x, so a pool that
			// ends at N entries would allocate about 5N on the way, not 2N.
			grown := make([]laneEnt, len(e.lanePool), max(2*len(e.lanePool), 16))
			copy(grown, e.lanePool)
			e.lanePool = grown
		}
		if len(e.lanePool) == 0 {
			e.lanePool = append(e.lanePool, laneEnt{}) // index 0 is every lane's "none"
		}
		e.lanePool = append(e.lanePool, laneEnt{})
		i = int32(len(e.lanePool) - 1)
	}
	e.lanePool[i] = laneEnt{evKey: key, h: h, a: a, b: b}
	if q.tail == 0 { // the new head takes a place in the heap
		q.head = i
		idx := e.allocRec()
		e.recs[idx].kind, e.recs[idx].a = evLane, l.id
		e.heapPush(mkEnt(key, idx))
	} else {
		e.lanePool[q.tail].next = i
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
	i := q.head
	ent := &e.lanePool[i]
	h, a, b, behind := ent.h, ent.a, ent.b, ent.next
	ent.next = e.laneFree
	e.laneFree = i
	if q.head = behind; behind != 0 {
		e.heap[0] = mkEnt(e.lanePool[behind].evKey, e.heap[0].rec())
		e.siftDown()
	} else {
		q.tail = 0
		e.heapPop()
	}
	return h, a, b
}
