// Package sim implements a deterministic discrete-event simulation engine
// with cooperatively scheduled processes. It is layer S1 of the substitution
// map (DESIGN.md §1): the stand-in for MPI ranks running on real clusters.
//
// The engine owns a virtual clock and a priority queue of events. Every
// simulated process is a coroutine (iter.Pull), so exactly one of them or the
// Run caller executes at any instant and control moves by direct goroutine
// switches that never enter the Go scheduler. Runs are fully deterministic
// for a fixed seed, which is what makes the reproduction of the paper's
// measurements repeatable.
//
// # Run-ahead processes
//
// A process has a clock of its own, and spending virtual time does not park
// its coroutine. Proc.Advance adds to the process's clock and records a stop,
// the instant a Sleep of the same length would have ended; Proc.DoH defers a
// call to the current stop (and runs it at once while the process is level
// with the engine). The coroutine parks only where it needs something from
// the engine: in Proc.Sync (until the engine has caught up; Sleep is Advance
// then Sync), in Proc.ParkUntil (until a poll says so) and in Cond.Wait.
//
// While the coroutine is parked the event loop travels for it. The process
// has one wake ticket queued, keyed to its first pending stop. When the ticket
// fires, the calls deferred to that stop run, and the same record is re-keyed
// to the next stop under a fresh sequence number — the number the eager
// process's next Sleep would have drawn at that point of the global order.
// Past the last stop the process's poll runs, in event context, on whichever
// goroutine is firing events: true resumes the coroutine; false leaves it
// parked, on the stops the poll has just made (it is called again past them)
// or on a Cond it blocked on. Every event therefore keeps the (time,
// sequence) key it has when each Advance is a Sleep, each DoH an inline call
// and each poll a loop around Cond.Wait, so event counts, the order of
// exact-time ties and the final clock do not depend on running ahead; only
// the coroutine switches go, all but the one that ends the wait.
// FuzzRunAhead checks that equivalence on random programs.
//
// What makes it exact is a contract on code that runs ahead — a process after
// Advance, and anything inside a poll. It touches only state its own process
// owns (or state, like a free list, whose order of use no result depends on).
// It defers every interaction with the engine, the network or another process
// with DoH. It never parks: Sync, ParkUntil and Cond.Wait inside a poll or a
// deferred call panic, and in a poll the itinerary's bound is honoured by
// giving up (Proc.Full), not by syncing — except for the one step of new
// work a poll starts once its wait holds (see maxAhead). And it reads what an
// event or another process writes only when level (Proc.Ahead reports false,
// or after Sync): having run ahead it would miss the writes still to come.
//
// # Hand-off
//
// A parking process fires events itself: if it is the next process to resume
// it simply returns, with no switch at all; otherwise it yields to the Run
// caller naming the process to wake, and the Run caller resumes that process
// — two coroutine switches per cross-process hand-off, each a fraction of a
// channel rendezvous. At the horizon the parked process yields nobody and
// Run/RunUntil returns. Engine.Resumes counts the hand-offs.
//
// Events live in a pool of records; the queue is an inlined 4-ary heap whose
// 16-byte entries pack each event's (time, sequence) key with its record's
// index, so ordering it is one branch-free compare that loads no record; it
// sifts bottom-up, and a walking ticket is re-keyed at the top of the array
// instead of being popped and pushed, as is the head of a Lane.
// The steady-state hot path (schedule, fire, re-key, free-list) performs no
// allocation.
//
// # Handlers
//
// A callback is a Handler: a func(a, b int32) registered once with
// Engine.Handle, named by its index in the engine's table, and scheduled with
// two int32 arguments — a record index and a rank, say. So an event record, a
// lane entry and a deferred call hold no pointer, and the pools that hold them
// give the collector nothing to trace however many messages are in flight.
// The (fn, arg) forms At, AtCall and netmodel's Network.Transfer are adapters
// onto the same path, kept for the repository benchmark's probes, their only
// caller: they park the pair in the engine's box table and schedule the box
// handler with its slot, drawing their sequence number exactly where a
// handler-form call would.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
)

// Time is virtual time in seconds.
type Time = float64

// Event kinds stored in pooled event records.
const (
	evCall     uint8 = iota // handler h with (a, b)
	evWake                  // wake process a if still parked on generation wgen
	evLane                  // the next callback of lane a
	evFallback              // handler h with (a, b), appended to lane wgen out of order
)

// eventRec is what a pooled event does when it fires, recycled through a free
// list afterwards; when it fires is the key of its queue entry (heapEnt). A
// scheduled event cannot be withdrawn: the one kind that goes stale, the wake
// ticket, is dropped by its park generation when it fires. It names its
// handler, process or lane by index and holds no pointer.
type eventRec struct {
	wgen uint64  // evWake: park generation the ticket targets; evFallback: the lane
	h    Handler // evCall, evFallback
	a, b int32   // evCall, evFallback: the handler's arguments; evWake: the process; evLane: the lane
	kind uint8
}

// Handler names a callback registered with Engine.Handle: its index in the
// engine's handler table.
type Handler int32

// boxHandler is every engine's first handler: it calls the (fn, arg) pair an
// adapter parked in box slot a.
const boxHandler Handler = 0

// boxes is the slot table the (fn, arg) adapters park their pairs in until the
// box handler fires. The engines of a Windows share one, under a lock: a
// delivery boxed on one shard may fire on another.
type boxes struct {
	mu   *sync.Mutex // nil while one engine owns the table
	s    []box
	free []int32
}

type box struct {
	fn  func(any)
	arg any
}

// ProcPanic wraps a panic that escaped a simulated process body, or a poll or
// deferred call running in event context on the process's behalf. It is
// re-raised on the goroutine that called Run/RunUntil, so harness code (the
// experiment runner, tests) can recover from faults in simulated rank code
// exactly like it recovers from engine-level panics. (A plain callback
// belongs to no process: its panic is blamed on the process that fired it,
// and reaches the Run caller unwrapped when that is who fired it.)
type ProcPanic struct {
	Proc  string // name of the process whose code panicked
	Value any    // the original panic value
	Stack []byte // stack captured at the panic site
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: panic in process %q: %v", pp.Proc, pp.Value)
}

func (pp *ProcPanic) String() string { return pp.Error() }

// Unwrap exposes the original panic value when it was an error.
func (pp *ProcPanic) Unwrap() error {
	if err, ok := pp.Value.(error); ok {
		return err
	}
	return nil
}

// Engine is a discrete-event simulator.
type Engine struct {
	now  Time
	recs []eventRec // event pool; heap entries and the free list hold indices into it
	free []int32    // recycled record indexes
	heap []heapEnt  // 4-ary min-heap of the queued events
	seq  int64

	deadline  Time       // horizon of the current Run/RunUntil
	strictEnd bool       // exclusive horizon: stop before t == deadline (PDES windows)
	procPanic *ProcPanic // pending fault captured from a process body
	// blamed is 1 + the index of the process whose poll or deferred calls are
	// running in event context (Proc.reach), on whichever goroutine fires
	// events, and 0 otherwise: a panic that escapes while it is set is that
	// process's, and the recovery that catches it (runBody, runLoop) wraps it
	// so. One field, not a deferred recover per wake ticket, and an index, not
	// a pointer the collector's write barrier would see twice per ticket.
	blamed int32

	procs []*Proc
	live  int
	seed  int64         // the random stream's seed
	rng   *ClonableRand // built from seed by the first Rand call; nil until then

	handlers []func(a, b int32) // indexed by Handler; handlers[0] opens a box
	box      *boxes

	lanes    []laneQ  // every bound lane's head and tail (lane.go), indexed by its id
	lanePool lanePool // the callbacks of every lane

	// Stats counters, useful in tests and for harness reporting.
	EventsFired   int64
	Resumes       int64 // times the event loop handed control (back) to a process
	LaneFallbacks int64 // lane appends that became ordinary events (Lane.AppendH)
	QueuePeak     int   // most entries the heap has held at once
}

// NewEngine returns an engine whose random source is seeded with seed. The
// source (about 5 KB of math/rand state) is built on the first Rand call, so
// an engine that never draws never pays for it.
func NewEngine(seed int64) *Engine {
	return newEngine(&Engine{seed: seed})
}

// newEngine gives e its handler table, holding the box handler alone, and an
// empty box table.
func newEngine(e *Engine) *Engine {
	e.box = &boxes{}
	e.handlers = []func(a, b int32){e.openBox}
	return e
}

// Handle registers fn and returns the Handler that names it on this engine.
// Handlers are numbered in registration order, so engines that register the
// same callbacks in the same order agree on every Handler: an event another
// shard's engine injects (Windows) names its handler in the table of the
// engine it fires on.
func (e *Engine) Handle(fn func(a, b int32)) Handler {
	e.handlers = append(e.handlers, fn)
	return Handler(len(e.handlers) - 1)
}

// park puts (fn, arg) in a free box slot and returns the slot.
func (bt *boxes) park(fn func(any), arg any) int32 {
	if bt.mu != nil {
		bt.mu.Lock()
	}
	var i int32
	if n := len(bt.free); n > 0 {
		i = bt.free[n-1]
		bt.free = bt.free[:n-1]
		bt.s[i] = box{fn, arg}
	} else {
		i = int32(len(bt.s))
		bt.s = append(bt.s, box{fn, arg})
	}
	if bt.mu != nil {
		bt.mu.Unlock()
	}
	return i
}

// openBox is the box handler: it frees slot i and calls what it held.
func (e *Engine) openBox(i, _ int32) {
	bt := e.box
	if bt.mu != nil {
		bt.mu.Lock()
	}
	b := bt.s[i]
	bt.s[i] = box{}
	bt.free = append(bt.free, i)
	if bt.mu != nil {
		bt.mu.Unlock()
	}
	b.fn(b.arg)
}

// callThunk calls the func() At parked as its argument.
func callThunk(fn any) { fn.(func())() }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source, building it on the
// first call. Nothing outside the tests draws from it today; it stays because
// the seed is NewEngine's only argument and the fork tests pin that the
// stream crosses a snapshot.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = NewClonableRand(e.seed)
	}
	return e.rng.Rand
}

// allocRec returns a free record index, growing the pool only when the free
// list is empty.
func (e *Engine) allocRec() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.recs = append(e.recs, eventRec{})
	return int32(len(e.recs) - 1)
}

// freeRec recycles a record. It holds no reference, so nothing needs
// clearing.
func (e *Engine) freeRec(idx int32) {
	e.free = append(e.free, idx)
}

// evKey is when an event fires: events fire in (time, sequence) order, and
// the sequence number makes simultaneous events deterministic (FIFO).
type evKey struct {
	t   Time
	seq int64
}

// heapEnt is one queued event in 16 bytes: its key and the index of its
// pooled record, packed so that ordering the queue is one 128-bit compare and
// never loads a record. hi is the bit pattern of the time, which orders a
// non-negative float as its value does; lo is seq<<idxBits | index. Sequence
// numbers are unique, so the index below them never decides an order, and
// (hi, lo) is a strict total order: the heap's pop sequence is fully
// deterministic.
type heapEnt struct {
	hi, lo uint64
}

// The split of lo: the record index takes the low idxBits, the sequence
// number the rest.
const (
	idxBits = 24
	maxIdx  = 1 << idxBits        // records: events queued at once
	maxSeq  = 1 << (64 - idxBits) // sequence numbers: events scheduled by one engine
)

// mkEnt builds the queue entry of record idx firing at k, and refuses a key
// or an index the entry cannot hold. Clearing the sign bit turns a time of -0
// (a legal InjectH at the start) into +0, which sorts with the other
// non-negative times; no negative time gets this far.
func mkEnt(k evKey, idx int32) heapEnt {
	if uint64(k.seq) >= maxSeq {
		panic("sim: an engine has scheduled 2^40 events (about 1.1e12), the bound of the sequence number in a queue entry")
	}
	if uint32(idx) >= maxIdx {
		panic("sim: 2^24 events (about 16.7 M) are queued at once, the bound of the record index in a queue entry")
	}
	return heapEnt{math.Float64bits(k.t) &^ (1 << 63), uint64(k.seq)<<idxBits | uint64(idx)}
}

// time is when the entry's event fires.
func (h heapEnt) time() Time { return math.Float64frombits(h.hi) }

// rec is the index of the entry's pooled record.
func (h heapEnt) rec() int32 { return int32(h.lo & (maxIdx - 1)) }

// lt reports a < b as 1 or 0: the borrow out of the 128-bit subtraction
// a - b. Used as an index, it picks the smaller of two entries without a
// branch.
func lt(a, b heapEnt) uint64 {
	_, borrow := bits.Sub64(a.lo, b.lo, 0)
	_, borrow = bits.Sub64(a.hi, b.hi, borrow)
	return borrow
}

func (e *Engine) heapPush(ent heapEnt) {
	e.heap = append(e.heap, ent)
	i := len(e.heap) - 1
	if i >= e.QueuePeak {
		e.QueuePeak = i + 1
	}
	e.siftUp(i, ent)
}

// siftUp places ent, whose slot i is a hole, on the path from i to the top:
// parents later than ent move down into the hole.
func (e *Engine) siftUp(i int, ent heapEnt) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 4
		if lt(ent, h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

// siftDown restores the heap below its top entry, after the top was replaced
// (heapPop) or re-keyed later (Proc.reach, Lane.next). It sifts bottom-up
// (Wegener): the hole at the top walks down the smaller children to a leaf,
// and the entry climbs back up from there. The entry nearly always belongs
// near the bottom — a popped heap's last entry, a ticket re-keyed to its
// next stop — so below the top's children the walk does not compare against
// it and the climb is short. Each complete sibling group's smallest child is
// three compares used as indexes, without a branch; only an incomplete last
// group takes a loop.
func (e *Engine) siftDown() {
	h := e.heap
	n := len(h)
	ent := h[0]
	i := 0
	for {
		first := 4*i + 1
		if first+4 <= n {
			c := h[first : first+4 : first+4]
			a := lt(c[1], c[0])
			b := 2 + lt(c[3], c[2])
			m := a + (b-a)*lt(c[b&3], c[a&1])
			if i == 0 && lt(ent, c[m&3]) == 1 {
				return // still the minimum, as a re-keyed ticket often is in a shallow queue
			}
			h[i] = c[m&3]
			i = first + int(m)
			continue
		}
		if first < n {
			best := first
			for c := first + 1; c < n; c++ {
				if lt(h[c], h[best]) == 1 {
					best = c
				}
			}
			h[i] = h[best]
			i = best
		}
		break
	}
	e.siftUp(i, ent)
}

// heapPop removes the minimum entry and recycles its record.
func (e *Engine) heapPop() {
	e.freeRec(e.heap[0].rec())
	n := len(e.heap) - 1
	if n > 0 {
		e.heap[0] = e.heap[n]
	}
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown()
	}
}

// due returns the instant an event scheduled d from now fires at. d < 0
// panics: the past is immutable; so does a NaN, which no time orders against.
func (e *Engine) due(d Time) Time {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: scheduling event in the past (d=%g)", d))
	}
	return e.now + d
}

// scheduleAt allocates and enqueues a record firing at absolute time t under
// the engine's next sequence number.
func (e *Engine) scheduleAt(t Time, kind uint8) *eventRec {
	e.seq++
	idx := e.allocRec()
	r := &e.recs[idx]
	r.kind = kind
	e.heapPush(mkEnt(evKey{t, e.seq}, idx))
	return r
}

// callAt schedules handler h with (a, b) at absolute time t.
func (e *Engine) callAt(t Time, h Handler, a, b int32) {
	r := e.scheduleAt(t, evCall)
	r.h, r.a, r.b = h, a, b
}

// AtTimeH schedules handler h with (a, b) at absolute virtual time t
// (t >= Now()), under the time of the relative-delay round trip,
// now + (t - now).
func (e *Engine) AtTimeH(t Time, h Handler, a, b int32) {
	e.callAt(e.due(t-e.now), h, a, b)
}

// InjectH enqueues handler h with (a, b) at absolute virtual time t,
// bypassing the delay-relative schedule path. It exists for the PDES window
// barrier: the destination engine's clock at a barrier depends on how ranks
// are partitioned, so computing a relative delay (t - now) and adding it back
// would reintroduce partition-dependent floating-point round-off. Injected
// events receive the engine's next sequence number, so the caller's
// injection order is the tie-break order for simultaneous events.
func (e *Engine) InjectH(t Time, h Handler, a, b int32) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: injecting event in the past (t=%g, now=%g)", t, e.now))
	}
	e.callAt(t, h, a, b)
}

// At schedules fn to run after delay d (d >= 0). Scheduling with d < 0
// panics: the past is immutable.
func (e *Engine) At(d Time, fn func()) { e.AtCall(d, callThunk, fn) }

// AtCall schedules fn(arg) after delay d, through the box table.
func (e *Engine) AtCall(d Time, fn func(any), arg any) {
	t := e.due(d)
	h, a, b := e.Box(fn, arg)
	e.callAt(t, h, a, b)
}

// Box parks (fn, arg) in the engine's box table and returns the handler form
// that calls fn(arg) once and frees the slot: what a (fn, arg) adapter
// schedules in place of the pair.
func (e *Engine) Box(fn func(any), arg any) (Handler, int32, int32) {
	return boxHandler, e.box.park(fn, arg), 0
}

// wakeAt schedules a wake ticket for process p's park generation g at absolute time
// t. Wake tickets are plain pooled records — no closure — and stale tickets
// (the process was already woken, re-parked, or finished) are dropped in the
// event loop (fire), which is how same-instant wakeups coalesce into one.
func (e *Engine) wakeAt(t Time, p int32, g uint64) {
	r := e.scheduleAt(t, evWake)
	r.a, r.wgen = p, g
}

// horizonReached reports whether no queued event may fire under the current
// horizon. Run/RunUntil use an inclusive deadline; a PDES window sets
// strictEnd so events at exactly the window boundary wait for the next
// window (a cross-shard message can arrive precisely at now + lookahead, and
// it must be merged at the barrier before anything at that instant fires).
func (e *Engine) horizonReached() bool {
	if len(e.heap) == 0 {
		return true
	}
	t := e.heap[0].time()
	if e.strictEnd {
		return t >= e.deadline
	}
	return t > e.deadline
}

// fire is the event loop: it fires the queue's top event on the calling
// goroutine until a live wake ticket ends in a process to resume
// (Proc.reach), and returns that process; at the horizon it returns nil. A
// callback is popped, then called; a lane head is re-keyed to the lane's next
// callback or popped, then called; a live ticket is left at the top for reach
// to re-key in place or pop. Its callers are a parking process (park) and the
// Run caller (runLoop), whichever is executing.
func (e *Engine) fire() *Proc {
	for !e.horizonReached() {
		top := e.heap[0]
		idx := top.rec()
		r := &e.recs[idx]
		e.now = top.time()
		e.EventsFired++
		switch r.kind {
		case evCall:
			h, a, b := r.h, r.a, r.b
			e.heapPop()
			e.handlers[h](a, b)
		case evLane:
			h, a, b := e.laneNext(r.a)
			e.handlers[h](a, b)
		case evFallback:
			h, a, b := r.h, r.a, r.b
			e.lanes[r.wgen].n--
			e.heapPop()
			e.handlers[h](a, b)
		default: // evWake
			if q := e.procs[r.a]; q.done || q.gen != r.wgen {
				e.heapPop() // stale ticket: this wakeup was coalesced away
			} else if q.reach(idx) {
				e.Resumes++
				return q
			}
		}
	}
	return nil
}

// runLoop fires events until the horizon on behalf of the Run caller,
// resuming each process fire names. A resumed process runs until it parks
// (or finishes) and hands back the next process to wake, so a chain of
// hand-offs is served without going through the queue check in between.
func (e *Engine) runLoop(deadline Time) {
	e.deadline = deadline
	// Whatever panics out of here — a process fault re-raised below, or a
	// callback, deferred call or poll fired on this goroutine — leaves
	// processes parked that nothing will resume.
	failed := true
	defer func() {
		if !failed {
			return
		}
		if b := e.blamed; b != 0 {
			// A poll or deferred call fired on this goroutine: its process is
			// to blame. Wrapped before the unwinding, whose processes must not
			// see it.
			q := e.procs[b-1]
			e.blamed = 0
			r := recover()
			pp, ok := r.(*ProcPanic)
			if !ok {
				pp = &ProcPanic{Proc: q.Name(), Value: r, Stack: debug.Stack()}
			}
			e.abandon()
			panic(pp)
		}
		e.abandon()
	}()
	for q := e.fire(); q != nil; {
		q, _ = q.next()
		if pp := e.procPanic; pp != nil {
			e.procPanic = nil
			panic(pp)
		}
		if q == nil {
			q = e.fire()
		}
	}
	failed = false
}

// abandon unwinds every process that has not finished, so that the
// goroutines of an engine whose Run ended in a panic exit instead of staying
// parked forever: a parked process's yield returns false and park panics
// with abandoned{}, which runBody swallows.
func (e *Engine) abandon() {
	for _, p := range e.procs {
		p.stop()
	}
}

// abandoned is the panic value that unwinds a parked process on abandon.
type abandoned struct{}

// Run executes events until the queue drains. It returns the final virtual
// time. If processes remain parked when the queue drains, the simulation is
// deadlocked; Run panics with a diagnostic naming the parked processes. A
// panic escaping a process body is re-raised here as a *ProcPanic.
func (e *Engine) Run() Time {
	e.runLoop(math.Inf(1))
	if e.live > 0 {
		var stuck []string
		for _, p := range e.procs {
			if !p.done {
				stuck = append(stuck, p.Name())
			}
		}
		sort.Strings(stuck)
		msg := fmt.Sprintf("sim: deadlock at t=%g, %d process(es) parked: %v", e.now, e.live, stuck)
		e.abandon()
		panic(msg)
	}
	return e.now
}

// RunUntil executes events with time <= deadline and returns the virtual time
// reached. Unlike Run it does not treat parked processes as a deadlock.
func (e *Engine) RunUntil(deadline Time) Time {
	e.runLoop(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// runWindow executes events with time strictly below end, leaving the clock
// at the last fired event. It is the per-shard leg of one PDES time window:
// the caller (Windows) guarantees that no event below end can be created by
// another shard, which is exactly the conservative-lookahead contract.
func (e *Engine) runWindow(end Time) {
	e.strictEnd = true
	e.runLoop(end)
	e.strictEnd = false
}

// nextEventTime returns the earliest queued event time, if any. The Windows
// coordinator reduces this across shards to place the next window boundary.
func (e *Engine) nextEventTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].time(), true
}

// Procs returns all processes ever spawned.
func (e *Engine) Procs() []*Proc { return e.procs }
