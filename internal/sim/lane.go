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
// with a free list. The
// zero Lane is empty and must be bound to its engine before the first Append.
type Lane struct {
	eng        *Engine
	head, tail int32 // first and last pending callback in the engine's pool; 0 while empty
}

// laneEnt is a pending callback, its key and the index of the callback behind
// it in its lane (once fired, of the next free entry).
type laneEnt struct {
	evKey
	fn   func(any)
	arg  any
	next int32
}

// Bind attaches the lane to the engine its callbacks fire on, before the first
// Append or while the lane is empty.
func (l *Lane) Bind(e *Engine) { l.eng = e }

// Append schedules fn(arg) at absolute virtual time t (t >= Now()) under the
// key Engine.AtTimeCall would give it: the next sequence number, and the time
// of the relative-delay round trip, now + (t - now).
func (l *Lane) Append(t Time, fn func(any), arg any) {
	e := l.eng
	t = e.due(t - e.now)
	if l.tail != 0 && t < e.lanePool[l.tail].t {
		e.LaneFallbacks++
		r := &e.recs[e.scheduleAt(t, evCall)]
		r.fn2, r.arg = fn, arg
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
	e.lanePool[i] = laneEnt{evKey: key, fn: fn, arg: arg}
	if l.tail == 0 { // the new head takes a place in the heap
		l.head = i
		idx := e.allocRec()
		e.recs[idx].kind, e.recs[idx].arg = evLane, l
		e.heapPush(mkEnt(key, idx))
	} else {
		e.lanePool[l.tail].next = i
	}
	l.tail = i
}

// next frees the lane's first callback, its head being the top of the queue,
// re-keys the head to the callback behind it or pops it, and returns what to
// call.
func (l *Lane) next() (func(any), any) {
	e := l.eng
	i := l.head
	ent := &e.lanePool[i]
	fn, arg, behind := ent.fn, ent.arg, ent.next
	*ent = laneEnt{next: e.laneFree}
	e.laneFree = i
	if l.head = behind; behind != 0 {
		e.heap[0] = mkEnt(e.lanePool[behind].evKey, e.heap[0].rec())
		e.siftDown()
	} else {
		l.tail = 0
		e.heapPop()
	}
	return fn, arg
}
