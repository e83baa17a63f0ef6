// The iter package needs language version 1.23 while go.mod stays at 1.22
// (perf/go.mod, which the benchmark owns, builds against it); the build
// constraint raises the language version for this file alone.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: a coroutine that the engine resumes when one
// of the process's wake tickets fires and that gives control back by parking.
// A parking process runs the event loop itself (see the package comment),
// returning inline when its own wake is the next live one and otherwise
// yielding the process to wake to the Run caller; either way exactly one
// goroutine executes at a time, and a process always runs on the thread of
// the goroutine that called Run (or of the PDES shard worker driving its
// engine).
//
// Wakeups are pooled evWake records addressed by (process, park generation).
// Any API that logically wakes a process (Sleep timers, Cond.Broadcast,
// Cond.Signal) pushes such a record; the event loop drops tickets whose
// generation is stale, which coalesces multiple same-instant wakeups of one
// process into a single resume.
type Proc struct {
	eng    *Engine
	name   string
	next   func() (*Proc, bool) // resume; returns the process to wake next, if any
	yield  func(*Proc) bool     // suspend, naming the process to wake; false once stopped
	stop   func()               // unwind a suspended process (Engine.abandon)
	done   bool
	parked bool
	gen    uint64 // park generation; wake tickets target a generation
}

// Spawn starts a new process executing fn. The process begins running at the
// current virtual time (via a zero-delay wake event). If fn panics, the
// panic is captured with its stack and re-raised from Run as a *ProcPanic.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, parked: true, gen: 1}
	e.procs = append(e.procs, p)
	e.live++
	p.next, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		p.yield, p.parked = yield, false
		e.procPanic = p.runBody(fn)
		p.done = true
		e.live--
	})
	e.atWake(0, p, 1)
	return p
}

// runBody executes the process body, converting an escaped panic into a
// *ProcPanic so it can be re-raised on the Run caller's goroutine.
func (p *Proc) runBody(fn func(*Proc)) (fail *ProcPanic) {
	defer func() {
		switch r := recover().(type) {
		case nil, abandoned:
		case *ProcPanic:
			fail = r // already wrapped by a nested engine's Run
		default:
			fail = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(p)
	return nil
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// prepark marks the process as about to park and returns the wake ticket
// that targets exactly this park. Must be called from the process's own
// goroutine, immediately before parkPrepared.
func (p *Proc) prepark() uint64 {
	p.gen++
	p.parked = true
	return p.gen
}

// parkPrepared suspends the process until a wake record with a matching
// ticket fires. The process fires events itself, so a park whose wake is the
// next live one costs no switch at all; before any other process's wake, and
// at the horizon (nil), it yields to the Run caller, which resumes it once a
// later fire pops its ticket.
func (p *Proc) parkPrepared() {
	if q := p.eng.fire(); q != p && !p.yield(q) {
		panic(abandoned{})
	}
	p.parked = false
}

// Sleep advances the process's local activity by duration d of virtual time.
// Other events interleave while the process sleeps.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %g in %q", d, p.name))
	}
	if d == 0 {
		return
	}
	g := p.prepark()
	p.eng.atWake(d, p, g)
	p.parkPrepared()
}

type condWaiter struct {
	p *Proc
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
	g := p.prepark()
	c.waiters = append(c.waiters, condWaiter{p, g})
	p.parkPrepared()
}

// Broadcast wakes all current waiters in FIFO order. It is safe to call from
// process context or event context: each waiter gets a zero-delay wake
// record, so the wakeups happen strictly after the caller's current step,
// in consecutive event order. A waiter that was meanwhile woken through
// another path holds a newer park generation and its record is dropped as
// stale by the event loop.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.eng.atWake(0, w.p, w.g)
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
	c.eng.atWake(0, w.p, w.g)
}
