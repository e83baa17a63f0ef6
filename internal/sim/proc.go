// The iter package needs language version 1.23 while go.mod stays at 1.22
// (perf/go.mod, which the benchmark owns, builds against it); the build
// constraint raises the language version for this file alone.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"strconv"
)

// Proc is a simulated process: a coroutine with a clock of its own that may
// run ahead of the engine's (see the package comment for the protocol and its
// contract). Advance moves the process's clock and records a stop, DoH defers
// a call to the current stop, and only Sync, ParkUntil and Cond.Wait park the
// coroutine; while it is parked the event loop walks its wake ticket from
// stop to stop, runs the deferred calls there, and finally asks the
// process's poll whether to resume it. A parking process runs the event loop
// itself, returning inline when it is the one to resume and otherwise
// yielding the process to wake to the Run caller; either way exactly one
// goroutine executes at a time, and a process always runs on the thread of
// the goroutine that called Run (or of the PDES shard worker driving its
// engine).
//
// Wakeups are pooled evWake records addressed by (process, park generation).
// Any API that logically wakes a process (the itinerary, Cond.Broadcast,
// Cond.Signal, Proc.Wake) pushes such a record; the generation moves on every
// time the event loop accepts one, so the event loop drops the others as
// stale, which coalesces multiple same-instant wakeups of one process into a
// single one.
type Proc struct {
	eng     *Engine
	name    string               // the name, or with num ≥ 0 its prefix (Name)
	next    func() (*Proc, bool) // resume; returns the process to wake next, if any
	yield   func(*Proc) bool     // suspend, naming the process to wake; false once stopped
	stop    func()               // unwind a suspended process (Engine.abandon)
	id      int32                // the process's index in the engine's procs
	num     int32                // SpawnNumbered's number, -1 for Spawn
	done    bool
	inEvent bool   // a poll or a deferred call of this process is running: it must not park
	gen     uint64 // park generation; wake tickets target a generation
	bgen    uint64 // the generation Block recorded for the next Wake; 0: not blocked

	// The run-ahead itinerary. local is the process's own clock, meaningful
	// while stops are pending; otherwise the process is level with the engine.
	local Time
	stops []stop   // instants the eager process would have woken at; stops[at:] are pending
	acts  []action // deferred calls of the pending stops, in order
	at    int32    // first pending stop
	act   int32    // first pending call
	poll  Poller
}

// Poller is what a process parked in ParkUntil asks, in event context,
// whether to resume.
type Poller interface {
	Poll() bool
}

// stop is one instant of a process's itinerary: where a Sleep would have
// ended, and how many deferred calls run once the engine gets there.
type stop struct {
	t    Time
	acts int
}

// action is a call deferred with DoH: 12 bytes, no pointer.
type action struct {
	h    Handler
	a, b int32
}

// maxAhead bounds the pending stops of one process, and with them the memory
// of its itinerary: in process context Advance syncs when the itinerary is
// full, and a poll is expected to stop making work when Full reports true.
// A poll that, once its wait holds, starts the next step of a longer wait (a
// collective's next round, mpi's WaitSteps) records that step's charges even
// past the bound, since Advance cannot sync in event context: the bound can
// be exceeded by at most one step's stops, one round's posts.
const maxAhead = 64

// firstStops and firstActs are the itinerary's first capacities: room for the
// stops and deferred calls of a typical wait (in a 16K-rank barrier and
// broadcast, 94 % of the ranks never hold more than 8 stops and 88 % never
// more than 2 calls), so most processes allocate each once instead of
// growing them from one entry by doubling.
const (
	firstStops = 8
	firstActs  = 2
)

// Spawn starts a new process executing fn. The process begins running at the
// current virtual time (via a zero-delay wake event). If fn panics, the
// panic is captured with its stack and re-raised from Run as a *ProcPanic.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, -1, fn)
}

// SpawnNumbered is Spawn for process number n (0 ≤ n < 2^31) of a family named
// prefix: the process's name, prefix followed by n in decimal, is built only
// when a diagnostic asks for it (Name), and n is what Num returns.
func (e *Engine) SpawnNumbered(prefix string, n int, fn func(p *Proc)) *Proc {
	return e.spawn(prefix, int32(n), fn)
}

func (e *Engine) spawn(name string, num int32, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, num: num, gen: 1, id: int32(len(e.procs))}
	e.procs = append(e.procs, p)
	e.live++
	p.next, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		e.procPanic = p.runBody(fn)
		p.done = true
		e.live--
	})
	e.wakeAt(e.now, p.id, 1)
	return p
}

// runBody executes the process body, converting an escaped panic into a
// *ProcPanic so it can be re-raised on the Run caller's goroutine. The body
// ends level with the engine: time the process only advanced by is simulated
// time like any other, and Run's result has to include it.
func (p *Proc) runBody(fn func(*Proc)) (fail *ProcPanic) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// A poll or deferred call this process fired while parked is its
		// owner's fault (Engine.blamed), not this process's.
		q := p
		if b := p.eng.blamed; b != 0 {
			q, p.eng.blamed = p.eng.procs[b-1], 0
		}
		switch r := r.(type) {
		case abandoned:
		case *ProcPanic:
			fail = r // a nested engine's Run
		default:
			fail = &ProcPanic{Proc: q.Name(), Value: r, Stack: debug.Stack()}
		}
	}()
	fn(p)
	p.Sync()
	return nil
}

// Now returns the process's virtual time: its own clock while it runs ahead,
// the engine's otherwise.
func (p *Proc) Now() Time {
	if p.Ahead() {
		return p.local
	}
	return p.eng.now
}

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Name returns the name the process was spawned under.
func (p *Proc) Name() string {
	if p.num < 0 {
		return p.name
	}
	return p.name + strconv.Itoa(int(p.num))
}

// Num returns the number SpawnNumbered gave the process, -1 for Spawn's.
func (p *Proc) Num() int { return int(p.num) }

// Ahead reports whether the process's clock is ahead of the engine's, i.e.
// whether stops are pending. A process that is not ahead is level.
func (p *Proc) Ahead() bool { return int(p.at) < len(p.stops) }

// Full reports whether the itinerary holds as many stops as it should; a
// poll stops making work and returns false then (Advance cannot sync there).
func (p *Proc) Full() bool { return len(p.stops)-int(p.at) >= maxAhead }

// Advance moves the process's clock forward by d without parking and records
// the instant reached as a stop. The clock accumulates the way consecutive
// Sleeps accumulate the engine's (local += d, one rounding per step), so
// every stop is bit for bit the instant the Sleep would have ended at.
func (p *Proc) Advance(d Time) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: negative advance %g in %q", d, p.Name()))
	}
	if d == 0 {
		return
	}
	if !p.Ahead() {
		p.local = p.eng.now
	} else if p.Full() && !p.inEvent {
		p.Sync() // level again, and local is exactly the engine's clock
	}
	p.local += d
	if p.stops == nil {
		p.stops = make([]stop, 0, firstStops)
	}
	p.stops = append(p.stops, stop{t: p.local})
}

// DoH calls handler h with (a, b) in event context once the engine has
// reached the process's current stop: at once when the process is level,
// otherwise after the calls deferred to that stop before it and before the
// ticket moves on. It is how code that runs ahead touches the engine or
// anything another process may see.
func (p *Proc) DoH(h Handler, a, b int32) {
	if !p.Ahead() {
		p.eng.handlers[h](a, b)
		return
	}
	if p.acts == nil {
		p.acts = make([]action, 0, firstActs)
	}
	p.acts = append(p.acts, action{h, a, b})
	p.stops[len(p.stops)-1].acts++
}

// Sync parks the process until the engine has caught up with its clock. It
// returns at once, with no event, when the process is level.
func (p *Proc) Sync() {
	if p.Ahead() {
		p.park()
	}
}

// Sleep advances the process by duration d of virtual time and waits for the
// engine to get there. Other events interleave while the process sleeps.
func (p *Proc) Sleep(d Time) {
	p.Advance(d)
	p.Sync()
}

// ParkUntil parks the process until poll returns true. poll is called when
// the engine has caught up with the process — the first time right here if
// it already has — and again each time a wake ticket of the process fires
// with no stop pending, i.e. after whatever poll itself advanced by has been
// walked, or after a Cond it blocked on was signaled or a Block was woken. It
// runs in event context, under the contract of the package comment: it may
// Advance, DoH, Block and Cond.Block, it must not park.
func (p *Proc) ParkUntil(poll Poller) {
	if !p.Ahead() {
		p.inEvent = true
		ok := poll.Poll()
		p.inEvent = false
		if ok {
			return
		}
	}
	p.poll = poll
	p.park()
	p.poll = nil
}

// park suspends the coroutine until reach says to resume it. The process
// fires events itself, so a park that ends with its own ticket costs no
// switch at all; before any other process's resumption, and at the horizon
// (nil), it yields to the Run caller, which resumes it once a later fire
// returns it.
func (p *Proc) park() {
	if p.inEvent {
		panic(fmt.Sprintf("sim: process %q parks in event context (inside a poll or a deferred call)", p.Name()))
	}
	e := p.eng
	if p.Ahead() {
		// The number the eager process's first Sleep would have drawn: nothing
		// was scheduled since the process went ahead.
		e.wakeAt(p.stops[p.at].t, p.id, p.gen)
	}
	if q := e.fire(); q != p && !p.yield(q) {
		panic(abandoned{})
	}
}

// reach handles a live wake ticket of the parked process p, record idx at the
// top of the queue, in event context, and reports whether to resume the
// coroutine. If the ticket stands at a stop, the calls deferred to it run.
// With stops left the ticket is re-keyed where it sits, to the next stop under
// a fresh sequence number — the one the eager process's next Sleep would have
// drawn here — and sinks from the top. With none left the poll decides: true
// resumes; false leaves the process parked, on the new stops the poll made or
// on the Cond it blocked on.
//
// The ticket stays at the top meanwhile: whatever the calls and the poll
// schedule fires no earlier than now and draws a later sequence number than
// the ticket's, so nothing can sift past it.
func (p *Proc) reach(idx int32) bool {
	e := p.eng
	p.gen++
	p.inEvent = true
	e.blamed = p.id + 1
	if p.Ahead() {
		n := p.stops[p.at].acts
		p.at++
		for ; n > 0; n-- {
			a := p.acts[p.act]
			p.act++
			e.handlers[a.h](a.a, a.b)
		}
	}
	resume := false
	if !p.Ahead() {
		p.stops, p.at = p.stops[:0], 0
		p.acts, p.act = p.acts[:0], 0
		resume = p.poll == nil || p.poll.Poll()
	}
	p.inEvent = false
	e.blamed = 0
	if e.heap[0].rec() != idx {
		panic(fmt.Sprintf("sim: an event was scheduled ahead of the firing wake ticket of %q", p.Name()))
	}
	if resume || !p.Ahead() {
		e.heapPop()
		return resume
	}
	e.seq++
	e.heap[0] = mkEnt(evKey{p.stops[p.at].t, e.seq}, idx)
	e.recs[idx].wgen = p.gen // indexed here: a deferred call may have grown the pool
	e.siftDown()
	return false
}

// Block makes the process its own waiter without parking it: the next Wake
// sends it a wake ticket. It is Cond.Block for a condition only the process
// itself waits on — a poll that found nothing to do (ParkUntil) — and costs
// no Cond: the process records the generation its ticket will target.
func (p *Proc) Block() {
	if p.Ahead() {
		panic(fmt.Sprintf("sim: process %q blocks while ahead of the engine", p.Name()))
	}
	p.bgen = p.gen
}

// Wake sends a blocked process (Block) a zero-delay wake ticket, as
// Cond.Broadcast does its waiters, and does nothing to one that is not
// blocked. It is safe from process context or event context.
func (p *Proc) Wake() {
	if p.bgen != 0 {
		p.eng.wakeAt(p.eng.now, p.id, p.bgen)
		p.bgen = 0
	}
}

// condWaiter is a blocked process, by index (no pointer for the write
// barrier to see), and the park generation its wake ticket targets.
type condWaiter struct {
	p int32
	g uint64
}

// Cond is a condition variable for simulated processes. The zero value is
// not usable; create one with NewCond. Waiters can experience spurious
// wakeups (e.g. when a stale broadcast fires), so, as with sync.Cond,
// callers must re-check their predicate in a loop.
type Cond struct {
	eng     *Engine
	waiters []condWaiter
}

// NewCond returns a condition variable bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait parks p until the condition is signaled.
func (c *Cond) Wait(p *Proc) {
	p.Sync()
	c.Block(p)
	p.park()
}

// Block makes p a waiter without parking it: the next Broadcast or Signal
// sends it a wake ticket. It is for a level process that is about to park or
// is parked already — a poll that found nothing to do (ParkUntil). A process
// that is ahead already has a ticket on its way, and two would race.
func (c *Cond) Block(p *Proc) {
	if p.Ahead() {
		panic(fmt.Sprintf("sim: process %q blocks on a Cond while ahead of the engine", p.Name()))
	}
	c.waiters = append(c.waiters, condWaiter{p.id, p.gen})
}

// Broadcast wakes all current waiters in FIFO order. It is safe to call from
// process context or event context: each waiter gets a zero-delay wake
// record, so the wakeups happen strictly after the caller's current step,
// in consecutive event order. A waiter that was meanwhile woken through
// another path holds a newer park generation and its record is dropped as
// stale by the event loop.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.eng.wakeAt(c.eng.now, w.p, w.g)
	}
	c.waiters = c.waiters[:0]
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:n]
	c.eng.wakeAt(c.eng.now, w.p, w.g)
}
