package sim

import (
	"fmt"
	"sort"
	"testing"
)

// The event queue against a reference: a small program of callbacks, lane
// appends and run-ahead processes is run on an engine and replayed on qRef,
// which keeps its queue as a slice sorted by (time, sequence) and draws
// sequence numbers where the engine's contract says they are drawn — one per
// scheduled callback, whether it is an ordinary event or waits in a lane, one
// per park, one per re-key of a walking wake ticket. Both must fire the same
// things at the same times in the same order and end with the same clock,
// event count, resume count and number of lane fallbacks. What the engine does
// differently is all that is under test: keys inside a 4-ary heap array, a
// live ticket that stays at the top while its stop's deferred calls run and is
// then re-keyed where it sits, and lanes, of which only the head is in the
// heap and is re-keyed the same way.
//
// A program is read two bytes at a time: the actor (byte % 4; '0' is the
// host, which acts before Run, '1'..'3' are processes) and its next operation
// (byte % 32, 'a'..'z'; the six other values repeat one of them):
//
//	a b c g   advance 1, 2, 3, 100     (exact sums: 1+2 and 3 tie)
//	d e f     advance 0.1, 0.2, 0.3    (0.1+0.2 and 0.3 differ in the last bit)
//	h i j m   do: schedule a callback 0, 1, 0.3 or 100 later
//	k         do: schedule qBurst callbacks 0..4 later (a deep heap; from a
//	          deferred call, more records than the pool holds)
//	l         sync
//	n o p     again advance 1, callback 0 later, sync
//	q r s v y do: append a callback 0, 1, 100, 0.3 or 2 later to lane A
//	t u x w z do: append a callback 0, 1, 100, 0.3 or 2 later to lane B
//
// The host ignores advance and sync; a process's do runs inline while it is
// level and as a deferred call of its current stop once it is ahead. An
// append earlier than its lane's last pending callback is an ordinary event.

type qKind uint8

const (
	qAdvance qKind = iota
	qCall
	qBurst
	qSync
	qLane
)

const qBurstLen = 100 // > 1+4+16+64: a burst alone makes the heap five levels deep

type qOp struct {
	kind qKind
	d    Time
	lane int // qLane: 1 (A) or 2 (B)
}

// issues reports whether the operation schedules callbacks.
func (op qOp) issues() bool { return op.kind == qCall || op.kind == qBurst || op.kind == qLane }

// delays lists how much later each callback of a scheduling operation fires.
func (op qOp) delays() []Time {
	if op.kind == qCall || op.kind == qLane {
		return []Time{op.d}
	}
	burst := make([]Time, qBurstLen)
	for k := range burst {
		burst[k] = Time(k % 5)
	}
	return burst
}

var qOps = [32]qOp{
	'a' % 32: {qAdvance, 1, 0}, 'b' % 32: {qAdvance, 2, 0}, 'c' % 32: {qAdvance, 3, 0}, 'g' % 32: {qAdvance, 100, 0},
	'd' % 32: {qAdvance, 0.1, 0}, 'e' % 32: {qAdvance, 0.2, 0}, 'f' % 32: {qAdvance, 0.3, 0},
	'h' % 32: {qCall, 0, 0}, 'i' % 32: {qCall, 1, 0}, 'j' % 32: {qCall, 0.3, 0}, 'm' % 32: {qCall, 100, 0},
	'k' % 32: {qBurst, 0, 0},
	'l' % 32: {qSync, 0, 0},
	'n' % 32: {qAdvance, 1, 0}, 'o' % 32: {qCall, 0, 0}, 'p' % 32: {qSync, 0, 0},
	'q' % 32: {qLane, 0, 1}, 'r' % 32: {qLane, 1, 1}, 's' % 32: {qLane, 100, 1}, 'v' % 32: {qLane, 0.3, 1}, 'y' % 32: {qLane, 2, 1},
	't' % 32: {qLane, 0, 2}, 'u' % 32: {qLane, 1, 2}, 'x' % 32: {qLane, 100, 2}, 'w' % 32: {qLane, 0.3, 2}, 'z' % 32: {qLane, 2, 2},
	0: {qAdvance, 1, 0}, 27: {qCall, 0, 0}, 28: {qSync, 0, 0}, 29: {qLane, 0, 1}, 30: {qLane, 1, 2}, 31: {qAdvance, 0.1, 0},
}

// qOutcome is what a run leaves to compare, and what it says about the paths
// it took (the seeds' claims, checked by TestEventQueueSeeds).
type qOutcome struct {
	Log       []string
	End       Time
	Fired     int64
	Resumes   int64
	Fallbacks int64 // lane appends that became ordinary events

	tieFired   int  // events fired at the instant of the event before them
	maxQueued  int  // most events queued at once (the engine: in its heap)
	ownInstant int  // callbacks a deferred call scheduled at its ticket's own instant
	rekeyTop   int  // re-keys after which the ticket was still the minimum of a non-empty queue
	rekeyAbove int  // ... of those, re-keys above a complete group of four children
	rekeyLeaf  int  // re-keys that made the ticket the maximum of a queue >= 4 levels deep
	rekeyClimb int  // re-keys whose ticket sinks below the top, then climbs back from the bottom
	popShort   int  // callbacks fired with 2 to 4 events left: the top's children are an incomplete group
	poolGrew   bool // engine only: a deferred call grew the record pool
	topChecked int  // engine only: deferred calls that found their ticket at the top

	laneAppends  int // appends that waited in their lane
	tieKinds     int // instants at which a lane callback, a plain callback and a ticket all fired
	refilled     int // appends to a lane that had drained at the same instant
	laneSwitches int // lane callbacks fired right after one of the other lane
	laneLeaf     int // lane heads re-keyed to the maximum of a queue >= 4 levels deep
}

// qWorld runs a program on the engine.
type qWorld struct {
	e     *Engine
	lanes [3]Lane // 1: A, 2: B
	cb    Handler // callback, for the lanes
	ids   int
	out   qOutcome
}

func (w *qWorld) callback(arg any) {
	w.out.Log = append(w.out.Log, fmt.Sprintf("%v cb%d", w.e.Now(), arg.(int)))
}

func (w *qWorld) issue(who int, op qOp) {
	w.out.Log = append(w.out.Log, fmt.Sprintf("%v p%d issues", w.e.Now(), who))
	for _, d := range op.delays() {
		w.ids++
		if op.kind == qLane {
			w.lanes[op.lane].AppendH(w.e.Now()+d, w.cb, int32(w.ids), 0)
		} else {
			w.e.AtCall(d, w.callback, w.ids)
		}
	}
}

func (w *qWorld) body(who int, ops []qOp) func(*Proc) {
	return func(p *Proc) {
		// issue runs ops[i] as a call the process defers.
		issue := w.e.Handle(func(i, _ int32) {
			op := ops[i]
			if !p.inEvent {
				w.issue(who, op)
				return
			}
			// A deferred call: the firing ticket is the top of the queue and
			// stays there whatever the call schedules.
			pool := len(w.e.recs)
			w.issue(who, op)
			top := w.e.heap[0]
			if r := &w.e.recs[top.rec()]; r.kind != evWake || w.e.procs[r.a] != p || top.time() != w.e.now {
				w.out.Log = append(w.out.Log, fmt.Sprintf("p%d: the top of the queue is not its firing ticket", who))
			}
			w.out.topChecked++
			w.out.poolGrew = w.out.poolGrew || len(w.e.recs) > pool
		})
		for i, op := range ops {
			switch op.kind {
			case qAdvance:
				p.Advance(op.d)
			case qSync:
				p.Sync()
				w.out.Log = append(w.out.Log, fmt.Sprintf("%v p%d level", p.Now(), who))
			default:
				p.DoH(issue, int32(i), 0)
			}
		}
	}
}

func runQueueEngine(prog [][]qOp) qOutcome {
	e := NewEngine(1)
	w := &qWorld{e: e}
	w.cb = e.Handle(func(id, _ int32) { w.callback(int(id)) })
	w.lanes[1].Bind(e)
	w.lanes[2].Bind(e)
	for _, op := range prog[0] {
		if op.issues() {
			w.issue(0, op)
		}
	}
	for who := 1; who < len(prog); who++ {
		e.Spawn(fmt.Sprintf("p%d", who), w.body(who, prog[who]))
	}
	w.out.End = e.Run()
	w.out.Fired, w.out.Resumes, w.out.Fallbacks = e.EventsFired, e.Resumes, e.LaneFallbacks
	w.out.maxQueued = e.QueuePeak
	return w.out
}

// qRef is the reference: the same program on a sorted slice.
type qRef struct {
	now   Time
	seq   int64
	queue []refEv // sorted by (t, seq)
	ids   int
	procs []*refProc
	lanes [3]refLane
	out   qOutcome
}

// refEv is a queued callback (id > 0), waiting in lane > 0 or not, or the
// wake ticket of process who.
type refEv struct {
	t    Time
	seq  int64
	who  int
	id   int
	lane int
}

// refLane is what the reference knows of a lane: how many of its callbacks
// are pending, when the last of them fires, and when it last fired one.
type refLane struct {
	pending   int
	tail      Time
	fired     bool
	lastFired Time
}

type refProc struct {
	ops   []qOp
	pc    int
	local Time
	stops []refStop // pending, first one first
}

type refStop struct {
	t    Time
	acts []qOp
}

// push queues an event under the next sequence number: behind everything
// queued for the same instant.
func (r *qRef) push(t Time, who, id, lane int) {
	r.seq++
	i := sort.Search(len(r.queue), func(i int) bool { return r.queue[i].t > t })
	r.queue = append(r.queue, refEv{})
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = refEv{t, r.seq, who, id, lane}
	if n := len(r.queue); n > r.out.maxQueued {
		r.out.maxQueued = n
	}
}

func (r *qRef) issue(who int, op qOp, deferred bool) {
	r.out.Log = append(r.out.Log, fmt.Sprintf("%v p%d issues", r.now, who))
	for _, d := range op.delays() {
		r.ids++
		if deferred && d == 0 {
			r.out.ownInstant++
		}
		if op.kind != qLane {
			r.push(r.now+d, 0, r.ids, 0)
			continue
		}
		// Engine.AtTimeH's time: the absolute instant, through the delay.
		t := r.now + d
		t = r.now + (t - r.now)
		lane, ln := op.lane, &r.lanes[op.lane]
		switch {
		case ln.pending > 0 && t < ln.tail:
			r.out.Fallbacks++
			lane = 0
		default:
			if ln.pending == 0 && ln.fired && ln.lastFired == r.now {
				r.out.refilled++
			}
			ln.pending++
			ln.tail = t
			r.out.laneAppends++
		}
		r.push(t, 0, r.ids, lane)
	}
}

// resume runs process who until it parks or ends (the body's final Sync).
func (r *qRef) resume(who int) {
	r.out.Resumes++
	p := r.procs[who]
	for ; p.pc < len(p.ops); p.pc++ {
		switch op := p.ops[p.pc]; {
		case op.kind == qAdvance:
			if len(p.stops) == 0 {
				p.local = r.now
			}
			p.local += op.d
			p.stops = append(p.stops, refStop{t: p.local})
		case op.kind == qSync && len(p.stops) > 0:
			r.push(p.stops[0].t, who, 0, 0)
			return // parked; the sync is read again, level, on resumption
		case op.kind == qSync:
			r.out.Log = append(r.out.Log, fmt.Sprintf("%v p%d level", r.now, who))
		case len(p.stops) == 0:
			r.issue(who, op, false)
		default:
			last := &p.stops[len(p.stops)-1]
			last.acts = append(last.acts, op)
		}
	}
	if len(p.stops) > 0 {
		r.push(p.stops[0].t, who, 0, 0)
	}
}

func runQueueRef(prog [][]qOp) qOutcome {
	r := &qRef{}
	for _, op := range prog[0] {
		if op.issues() {
			r.issue(0, op, false)
		}
	}
	r.procs = make([]*refProc, len(prog))
	for who := 1; who < len(prog); who++ {
		r.procs[who] = &refProc{ops: prog[who]}
		r.push(r.now, who, 0, 0)
	}
	kinds, lastLane := 0, 0 // what fired at this instant (lane 1, plain callback 2, ticket 4); the last lane to fire
	for len(r.queue) > 0 {
		ev := r.queue[0]
		r.queue = r.queue[1:]
		if r.out.Fired > 0 && ev.t == r.now {
			r.out.tieFired++
		} else {
			kinds = 0
		}
		r.now = ev.t
		r.out.Fired++
		kind := 4
		if ev.lane > 0 {
			kind = 1
			r.fireLane(ev, lastLane)
			lastLane = ev.lane
		} else if ev.id > 0 {
			kind = 2
		}
		if kinds != 7 && kinds|kind == 7 {
			r.out.tieKinds++
		}
		kinds |= kind
		if ev.id > 0 {
			if n := len(r.queue); ev.lane == 0 && r.heapSized() && n >= 2 && n <= 4 {
				r.out.popShort++
			}
			r.out.Log = append(r.out.Log, fmt.Sprintf("%v cb%d", r.now, ev.id))
			continue
		}
		p := r.procs[ev.who]
		if len(p.stops) > 0 {
			acts := p.stops[0].acts
			p.stops = p.stops[1:]
			for _, op := range acts {
				r.issue(ev.who, op, true)
			}
		}
		if len(p.stops) == 0 {
			r.resume(ev.who)
			continue
		}
		// The walking ticket takes its next stop's key under a fresh number.
		t := p.stops[0].t
		if n := len(r.queue); n > 0 && t < r.queue[0].t {
			r.out.rekeyTop++
			if n >= 4 && r.heapSized() {
				r.out.rekeyAbove++
			}
		} else if n > 1+4+16+64 && t >= r.queue[n-1].t {
			r.out.rekeyLeaf++
		} else if r.heapSized() && climbs(sort.Search(n, func(i int) bool { return r.queue[i].t > t }), n+1) {
			r.out.rekeyClimb++
		}
		r.push(t, ev.who, 0, 0)
	}
	r.out.End = r.now
	return r.out
}

// heapSized reports whether the engine's heap holds what the reference's
// queue does: no lane has a callback waiting behind its head.
func (r *qRef) heapSized() bool {
	return r.lanes[1].pending <= 1 && r.lanes[2].pending <= 1
}

// climbs reports whether an entry re-keyed at the top of a 4-ary heap of n
// entries, rank of them (itself not counted) ordered before its new key, is
// sure to sink below the top and then climb back. The hole walks down the
// smaller children at least to the level above the last, each child later
// than the one before it: rank >= 1 passes the first, and rank smaller than
// the number of children walked puts the entry above the last of them.
func climbs(rank, n int) bool {
	levels := 0
	for full, width := 0, 1; full < n; width *= 4 {
		full += width
		levels++
	}
	return rank >= 1 && rank < levels-2
}

// fireLane accounts for a lane callback leaving the queue: its lane's head
// moves on to the next of its callbacks, if any.
func (r *qRef) fireLane(ev refEv, lastLane int) {
	ln := &r.lanes[ev.lane]
	ln.pending--
	ln.fired, ln.lastFired = true, r.now
	if lastLane > 0 && lastLane != ev.lane {
		r.out.laneSwitches++
	}
	if ln.pending == 0 {
		return
	}
	n := len(r.queue)
	if last := r.queue[n-1]; n > 1+4+16+64 && last.lane == ev.lane {
		r.out.laneLeaf++ // the lane's next callback is the queue's maximum
	}
}

func parseQueueProgram(data []byte) [][]qOp {
	if len(data) > 126 { // 63 operations: no itinerary can fill up
		data = data[:126]
	}
	prog := make([][]qOp, 4)
	for i := 0; i+1 < len(data); i += 2 {
		who := data[i] % 4
		prog[who] = append(prog[who], qOps[data[i+1]%32])
	}
	return prog
}

// queueSeeds are the committed programs, each named for the path it takes;
// claim says so in terms of the outcome.
var queueSeeds = []struct {
	name, prog string
	claim      func(ref, eng qOutcome) bool
}{
	{"exact-time ties between callbacks and two tickets", "0i0i1a2a1h2h1b2c1i2l1d1e2f0j",
		func(ref, _ qOutcome) bool { return ref.tieFired >= 4 }},
	{"a heap at least four levels deep", "0k0k1a1b1l",
		func(ref, _ qOutcome) bool { return ref.maxQueued > 1+4+16+64 }},
	{"a deferred call schedules at the ticket's own instant", "1a1h1h1a1h1l",
		func(ref, eng qOutcome) bool { return ref.ownInstant == 3 && eng.topChecked == 3 }},
	{"a deferred call grows the record pool", "1a1k1a1l",
		func(_, eng qOutcome) bool { return eng.poolGrew }},
	{"a re-keyed ticket stays the minimum", "0m0m1a1a1a1l",
		func(ref, _ qOutcome) bool { return ref.rekeyTop == 2 }},
	{"a re-keyed ticket sinks to a leaf", "0k0k1a1g1l",
		func(ref, _ qOutcome) bool { return ref.rekeyLeaf == 1 }},
	{"three walking tickets through a burst", "0k1d2e3f1e2d3f1f2f3d1k2h3i1a2b3c",
		func(ref, eng qOutcome) bool { return ref.ownInstant > 0 && eng.poolGrew }},
	{"in-order lane appends wait outside the heap", "0q0r0s",
		func(ref, eng qOutcome) bool { return ref.laneAppends == 3 && eng.maxQueued == ref.maxQueued-2 }},
	{"an out-of-order lane append falls back", "0s0q",
		func(ref, _ qOutcome) bool { return ref.laneAppends == 1 && ref.Fallbacks == 1 }},
	{"a lane head, a plain callback and a ticket tie", "0r0i1a1l",
		func(ref, _ qOutcome) bool { return ref.laneAppends == 1 && ref.tieKinds == 1 }},
	{"a lane drained and refilled at one instant", "0r1a1q1l",
		func(ref, _ qOutcome) bool { return ref.refilled == 1 && ref.Fallbacks == 0 }},
	{"two lanes interleave", "0q0t0r0u0s0x",
		func(ref, eng qOutcome) bool { return ref.laneSwitches == 5 && eng.maxQueued == ref.maxQueued-4 }},
	{"a re-keyed lane head sinks to a leaf", "0k0k0q0s",
		func(ref, _ qOutcome) bool { return ref.laneLeaf == 1 }},
	{"a re-keyed ticket stays above four children", "0m0m0m0m1a1a1a1l",
		func(ref, _ qOutcome) bool { return ref.rekeyAbove == 2 }},
	{"a re-keyed ticket sinks and climbs back", "0k0j1e1e1l",
		func(ref, _ qOutcome) bool { return ref.rekeyClimb == 1 }},
	{"a pop reaches an incomplete sibling group", "0i0h0j0m0i",
		func(ref, _ qOutcome) bool { return ref.popShort == 2 }},
}

// checkQueueProgram runs the program both ways and compares what is common
// to the two outcomes.
func checkQueueProgram(t *testing.T, data []byte) (ref, eng qOutcome) {
	t.Helper()
	prog := parseQueueProgram(data)
	ref, eng = runQueueRef(prog), runQueueEngine(prog)
	if ref.End != eng.End || ref.Fired != eng.Fired || ref.Resumes != eng.Resumes || ref.Fallbacks != eng.Fallbacks {
		t.Errorf("reference ends at %v after %d events, %d resumes and %d lane fallbacks, the engine at %v after %d, %d and %d",
			ref.End, ref.Fired, ref.Resumes, ref.Fallbacks, eng.End, eng.Fired, eng.Resumes, eng.Fallbacks)
	}
	sameLogs(t, "reference", ref.Log, "engine", eng.Log)
	return ref, eng
}

// TestEventQueueSeeds holds every committed seed to the path it is named for.
func TestEventQueueSeeds(t *testing.T) {
	for _, s := range queueSeeds {
		t.Run(s.name, func(t *testing.T) {
			if ref, eng := checkQueueProgram(t, []byte(s.prog)); !s.claim(ref, eng) {
				ref.Log, eng.Log = nil, nil
				t.Errorf("%q does not take that path: reference %+v, engine %+v", s.prog, ref, eng)
			}
		})
	}
}

func FuzzEventQueue(f *testing.F) {
	for _, s := range queueSeeds {
		f.Add([]byte(s.prog))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkQueueProgram(t, data) })
}
