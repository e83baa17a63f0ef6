package sim

import (
	"fmt"
	"sort"
	"testing"
)

// The event queue against a reference: a small program of callbacks and
// run-ahead processes is run on an engine and replayed on qRef, which keeps
// its queue as a slice sorted by (time, sequence) and draws sequence numbers
// where the engine's contract says they are drawn — one per scheduled
// callback, one per park, one per re-key of a walking wake ticket. Both must
// fire the same things at the same times in the same order and end with the
// same clock, event count and resume count. What the engine does differently
// is all that is under test: keys inside a 4-ary heap array, and a live
// ticket that stays at the top while its stop's deferred calls run and is
// then re-keyed where it sits.
//
// A program is read two bytes at a time: the actor (byte % 4; '0' is the
// host, which acts before Run, '1'..'3' are processes) and its next operation
// (byte % 16, 'a'..'p'):
//
//	a b c g   advance 1, 2, 3, 100     (exact sums: 1+2 and 3 tie)
//	d e f     advance 0.1, 0.2, 0.3    (0.1+0.2 and 0.3 differ in the last bit)
//	h i j m   do: schedule a callback 0, 1, 0.3 or 100 later
//	k         do: schedule qBurst callbacks 0..4 later (a deep heap; from a
//	          deferred call, more records than the pool holds)
//	l         sync
//	n o p     again advance 1, callback 0 later, sync
//
// The host ignores advance and sync; a process's do runs inline while it is
// level and as a deferred call of its current stop once it is ahead.

type qKind uint8

const (
	qAdvance qKind = iota
	qCall
	qBurst
	qSync
)

const qBurstLen = 100 // > 1+4+16+64: a burst alone makes the heap five levels deep

type qOp struct {
	kind qKind
	d    Time
}

// delays lists how much later each callback of a scheduling operation fires.
func (op qOp) delays() []Time {
	if op.kind == qCall {
		return []Time{op.d}
	}
	burst := make([]Time, qBurstLen)
	for k := range burst {
		burst[k] = Time(k % 5)
	}
	return burst
}

var qOps = [16]qOp{
	'a' % 16: {qAdvance, 1}, 'b' % 16: {qAdvance, 2}, 'c' % 16: {qAdvance, 3}, 'g' % 16: {qAdvance, 100},
	'd' % 16: {qAdvance, 0.1}, 'e' % 16: {qAdvance, 0.2}, 'f' % 16: {qAdvance, 0.3},
	'h' % 16: {qCall, 0}, 'i' % 16: {qCall, 1}, 'j' % 16: {qCall, 0.3}, 'm' % 16: {qCall, 100},
	'k' % 16: {qBurst, 0},
	'l' % 16: {qSync, 0},
	'n' % 16: {qAdvance, 1}, 'o' % 16: {qCall, 0}, 'p' % 16: {qSync, 0},
}

// qOutcome is what a run leaves to compare, and what it says about the paths
// it took (the seeds' claims, checked by TestEventQueueSeeds).
type qOutcome struct {
	Log     []string
	End     Time
	Fired   int64
	Resumes int64

	tieFired   int  // events fired at the instant of the event before them
	maxQueued  int  // most events queued at once
	ownInstant int  // callbacks a deferred call scheduled at its ticket's own instant
	rekeyTop   int  // re-keys after which the ticket was still the minimum of a non-empty queue
	rekeyLeaf  int  // re-keys that made the ticket the maximum of a queue >= 4 levels deep
	poolGrew   bool // engine only: a deferred call grew the record pool
	topChecked int  // engine only: deferred calls that found their ticket at the top
}

// qWorld runs a program on the engine.
type qWorld struct {
	e   *Engine
	ids int
	out qOutcome
}

func (w *qWorld) callback(arg any) {
	w.out.Log = append(w.out.Log, fmt.Sprintf("%v cb%d", w.e.Now(), arg.(int)))
}

func (w *qWorld) issue(who int, op qOp) {
	w.out.Log = append(w.out.Log, fmt.Sprintf("%v p%d issues", w.e.Now(), who))
	for _, d := range op.delays() {
		w.ids++
		w.e.AtCall(d, w.callback, w.ids)
	}
}

func (w *qWorld) body(who int, ops []qOp) func(*Proc) {
	return func(p *Proc) {
		for _, op := range ops {
			switch op.kind {
			case qAdvance:
				p.Advance(op.d)
			case qSync:
				p.Sync()
				w.out.Log = append(w.out.Log, fmt.Sprintf("%v p%d level", p.Now(), who))
			default:
				p.Do(func(any) {
					if !p.inEvent {
						w.issue(who, op)
						return
					}
					// A deferred call: the firing ticket is the top of the
					// queue and stays there whatever the call schedules.
					pool := len(w.e.recs)
					w.issue(who, op)
					top := w.e.heap[0]
					if r := &w.e.recs[top.idx]; r.kind != evWake || r.proc != p || top.t != w.e.now {
						w.out.Log = append(w.out.Log, fmt.Sprintf("p%d: the top of the queue is not its firing ticket", who))
					}
					w.out.topChecked++
					w.out.poolGrew = w.out.poolGrew || len(w.e.recs) > pool
				}, nil)
			}
		}
	}
}

func runQueueEngine(prog [][]qOp) qOutcome {
	e := NewEngine(1)
	w := &qWorld{e: e}
	for _, op := range prog[0] {
		if op.kind == qCall || op.kind == qBurst {
			w.issue(0, op)
		}
	}
	for who := 1; who < len(prog); who++ {
		e.Spawn(fmt.Sprintf("p%d", who), w.body(who, prog[who]))
	}
	w.out.End = e.Run()
	w.out.Fired, w.out.Resumes = e.EventsFired, e.Resumes
	return w.out
}

// qRef is the reference: the same program on a sorted slice.
type qRef struct {
	now   Time
	seq   int64
	queue []refEv // sorted by (t, seq)
	ids   int
	procs []*refProc
	out   qOutcome
}

// refEv is a queued callback (id > 0) or the wake ticket of process who.
type refEv struct {
	t   Time
	seq int64
	who int
	id  int
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
func (r *qRef) push(t Time, who, id int) {
	r.seq++
	i := sort.Search(len(r.queue), func(i int) bool { return r.queue[i].t > t })
	r.queue = append(r.queue, refEv{})
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = refEv{t, r.seq, who, id}
	if n := len(r.queue); n > r.out.maxQueued {
		r.out.maxQueued = n
	}
}

func (r *qRef) issue(who int, op qOp, deferred bool) {
	r.out.Log = append(r.out.Log, fmt.Sprintf("%v p%d issues", r.now, who))
	for _, d := range op.delays() {
		r.ids++
		r.push(r.now+d, 0, r.ids)
		if deferred && d == 0 {
			r.out.ownInstant++
		}
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
			r.push(p.stops[0].t, who, 0)
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
		r.push(p.stops[0].t, who, 0)
	}
}

func runQueueRef(prog [][]qOp) qOutcome {
	r := &qRef{}
	for _, op := range prog[0] {
		if op.kind == qCall || op.kind == qBurst {
			r.issue(0, op, false)
		}
	}
	r.procs = make([]*refProc, len(prog))
	for who := 1; who < len(prog); who++ {
		r.procs[who] = &refProc{ops: prog[who]}
		r.push(r.now, who, 0)
	}
	for len(r.queue) > 0 {
		ev := r.queue[0]
		r.queue = r.queue[1:]
		if r.out.Fired > 0 && ev.t == r.now {
			r.out.tieFired++
		}
		r.now = ev.t
		r.out.Fired++
		if ev.id > 0 {
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
		} else if n > 1+4+16+64 && t >= r.queue[n-1].t {
			r.out.rekeyLeaf++
		}
		r.push(t, ev.who, 0)
	}
	r.out.End = r.now
	return r.out
}

func parseQueueProgram(data []byte) [][]qOp {
	if len(data) > 126 { // 63 operations: no itinerary can fill up
		data = data[:126]
	}
	prog := make([][]qOp, 4)
	for i := 0; i+1 < len(data); i += 2 {
		who := data[i] % 4
		prog[who] = append(prog[who], qOps[data[i+1]%16])
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
}

// checkQueueProgram runs the program both ways and compares what is common
// to the two outcomes.
func checkQueueProgram(t *testing.T, data []byte) (ref, eng qOutcome) {
	t.Helper()
	prog := parseQueueProgram(data)
	ref, eng = runQueueRef(prog), runQueueEngine(prog)
	if ref.End != eng.End || ref.Fired != eng.Fired || ref.Resumes != eng.Resumes {
		t.Errorf("reference ends at %v after %d events and %d resumes, the engine at %v after %d and %d",
			ref.End, ref.Fired, ref.Resumes, eng.End, eng.Fired, eng.Resumes)
	}
	sameLogs(t, "reference", ref.Log, "engine", eng.Log)
	return ref, eng
}

// TestEventQueueSeeds holds every committed seed to the path it is named for.
func TestEventQueueSeeds(t *testing.T) {
	for _, s := range queueSeeds {
		if ref, eng := checkQueueProgram(t, []byte(s.prog)); !s.claim(ref, eng) {
			ref.Log, eng.Log = nil, nil
			t.Errorf("%s: %q does not take that path: reference %+v, engine %+v", s.name, s.prog, ref, eng)
		}
	}
}

func FuzzEventQueue(f *testing.F) {
	for _, s := range queueSeeds {
		f.Add([]byte(s.prog))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkQueueProgram(t, data) })
}
