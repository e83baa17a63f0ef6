// Conservative parallel discrete-event simulation (PDES) across shards.
//
// A sharded world partitions its ranks over K engines, each driven on its
// own goroutine. Shards synchronize on global time windows: every window
// ends at
//
//	end = min over shards of (earliest queued event) + lookahead
//
// where the lookahead is the minimum virtual latency any cross-shard
// interaction can have (netmodel's minimum cross-node wire latency). Inside
// a window each shard fires its local events independently — conservatively
// safe, because a message sent by another shard during the same window
// cannot become visible earlier than the window's end.
//
// Cross-shard events never touch a foreign engine directly. Producers
// append them to their shard's Outbox; at the window barrier the
// coordinator merges all outboxes in a canonical (time, producer rank,
// per-producer sequence) order and injects them at absolute virtual times.
// Both the window boundaries and the merge order are functions of the
// simulation's (deterministic) virtual timeline only — not of the
// partition — which is what makes every artifact byte-identical at any
// shard count (DESIGN.md §2).
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Pending is one cross-shard event awaiting injection at the next window
// barrier. Src and Seq identify the producing rank and its per-rank message
// sequence number; together with T they form the canonical merge key.
type Pending struct {
	T    Time
	Seq  uint64
	Src  int32
	Dst  int32 // destination shard index
	H    Handler
	A, B int32
}

// Outbox collects one shard's outbound cross-shard events during a window.
// Exactly one shard appends to it (from engine-event context, so appends
// are serialized); the Windows coordinator drains it at the barrier.
type Outbox struct {
	pend []Pending
}

// Add records one cross-shard event, handler h with (a, b), firing at
// absolute time t on shard dst. The handler is resolved in the table of the
// destination's engine, which registered its handlers in the same order as
// the source's (Engine.Handle).
func (o *Outbox) Add(t Time, src int32, seq uint64, dst int, h Handler, a, b int32) {
	o.pend = append(o.pend, Pending{T: t, Seq: seq, Src: src, Dst: int32(dst), H: h, A: a, B: b})
}

// pendingByKey sorts by (T, Src, Seq) — a strict total order, since a
// producer never emits two events with the same sequence number.
type pendingByKey []Pending

func (p pendingByKey) Len() int      { return len(p) }
func (p pendingByKey) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p pendingByKey) Less(i, j int) bool {
	if p[i].T != p[j].T {
		return p[i].T < p[j].T
	}
	if p[i].Src != p[j].Src {
		return p[i].Src < p[j].Src
	}
	return p[i].Seq < p[j].Seq
}

// Windows coordinates K shard engines through conservative time windows.
type Windows struct {
	engs []*Engine
	la   float64  // lookahead: minimum cross-shard latency
	out  []Outbox // one per shard, owned by that shard between barriers

	merged pendingByKey // barrier scratch

	// Stats for benchmarks and overhead reporting.
	Barriers int64 // windows executed
	Injected int64 // cross-shard events merged

	workers []windowWorker
}

// windowWorker is one persistent shard goroutine: it runs its engine's leg
// of each window, reporting a recovered panic (or nil) per window.
type windowWorker struct {
	start chan Time
	done  chan any
}

// NewWindows creates a coordinator over the given engines. lookahead must be
// positive: a zero lookahead would make every window empty and the
// simulation unable to advance. The engines must have nothing boxed: their
// (fn, arg) adapters share one box table from here on, under a lock, so a
// callback boxed on one shard may fire on another; the handler path takes no
// lock.
func NewWindows(engs []*Engine, lookahead float64) *Windows {
	if len(engs) == 0 {
		panic("sim: NewWindows needs at least one engine")
	}
	if !(lookahead > 0) {
		panic(fmt.Sprintf("sim: PDES lookahead must be positive, got %g", lookahead))
	}
	if len(engs) > 1 {
		shared := &boxes{mu: new(sync.Mutex)}
		for _, e := range engs {
			e.box = shared
		}
	}
	return &Windows{engs: engs, la: lookahead, out: make([]Outbox, len(engs))}
}

// Outbox returns shard i's outbox. The netmodel layer appends cross-shard
// deliveries to it from shard i's engine context.
func (ws *Windows) Outbox(i int) *Outbox { return &ws.out[i] }

// Shards returns the number of shard engines.
func (ws *Windows) Shards() int { return len(ws.engs) }

// Now returns the global virtual time: the maximum clock over all shards.
func (ws *Windows) Now() Time {
	var t Time
	for _, e := range ws.engs {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// drain merges every shard's outbox in canonical order and injects the
// events into their destination engines. Injection happens between windows,
// when no shard goroutine is running, so it may touch every engine.
func (ws *Windows) drain() {
	ws.merged = ws.merged[:0]
	for i := range ws.out {
		ws.merged = append(ws.merged, ws.out[i].pend...)
		ws.out[i].pend = ws.out[i].pend[:0]
	}
	if len(ws.merged) == 0 {
		return
	}
	sort.Sort(ws.merged)
	for i := range ws.merged {
		p := &ws.merged[i]
		ws.engs[p.Dst].InjectH(p.T, p.H, p.A, p.B)
	}
	ws.Injected += int64(len(ws.merged))
}

// Run drives the windowed simulation until every shard's queue drains and
// no cross-shard events remain in flight. It returns the global virtual
// time. Like Engine.Run it panics on deadlock (parked processes with no
// runnable events anywhere) and re-raises process panics as *ProcPanic.
func (ws *Windows) Run() Time {
	if len(ws.engs) > 1 {
		ws.startWorkers()
		defer ws.stopWorkers()
	}
	for {
		ws.drain()
		minNext := math.Inf(1)
		any := false
		for _, e := range ws.engs {
			if t, ok := e.nextEventTime(); ok && (!any || t < minNext) {
				minNext, any = t, true
			}
		}
		if !any {
			break
		}
		ws.Barriers++
		ws.runWindow(minNext + ws.la)
	}
	live := 0
	var stuck []string
	for s, e := range ws.engs {
		if e.live == 0 {
			continue
		}
		live += e.live
		for _, p := range e.procs {
			if !p.done {
				stuck = append(stuck, fmt.Sprintf("%s(shard %d)", p.Name(), s))
			}
		}
	}
	if live > 0 {
		sort.Strings(stuck)
		ws.abandon()
		panic(fmt.Sprintf("sim: PDES deadlock at t=%g, %d process(es) parked: %v", ws.Now(), live, stuck))
	}
	// Every shard leaves at the common final time, not at its own last
	// event: a program started on the same engines afterwards must begin at
	// one clock whatever the partition.
	end := ws.Now()
	for _, e := range ws.engs {
		e.now = end
	}
	return end
}

// runWindow executes one window boundary-exclusively on every shard. With a
// single shard it runs inline; otherwise the persistent workers run their
// engines concurrently and the first (lowest-shard) recovered panic is
// re-raised after the barrier.
func (ws *Windows) runWindow(end Time) {
	if len(ws.engs) == 1 {
		ws.engs[0].runWindow(end)
		return
	}
	for i := range ws.workers {
		ws.workers[i].start <- end
	}
	var fail any
	for i := range ws.workers {
		if r := <-ws.workers[i].done; r != nil && fail == nil {
			fail = r
		}
	}
	if fail != nil {
		ws.abandon()
		panic(fail)
	}
}

// abandon unwinds the unfinished processes of every shard (Engine.abandon);
// it runs after a barrier, when no worker is inside its engine.
func (ws *Windows) abandon() {
	for _, e := range ws.engs {
		e.abandon()
	}
}

// startWorkers launches one persistent goroutine per shard. The workers are
// not pinned to OS threads: the runtime refuses to resume a coroutine from a
// goroutine whose thread-lock state differs from the one that created it, and
// processes are spawned by the Run caller but resumed here.
func (ws *Windows) startWorkers() {
	ws.workers = make([]windowWorker, len(ws.engs))
	for i := range ws.engs {
		ws.workers[i] = windowWorker{start: make(chan Time), done: make(chan any, 1)}
		go func(w windowWorker, e *Engine) {
			for end := range w.start {
				w.done <- runOneWindow(e, end)
			}
		}(ws.workers[i], ws.engs[i])
	}
}

// runOneWindow runs one engine's window leg, converting a panic (engine
// fault or re-raised *ProcPanic) into a value the coordinator re-raises.
func runOneWindow(e *Engine, end Time) (fail any) {
	defer func() { fail = recover() }()
	e.runWindow(end)
	return nil
}

func (ws *Windows) stopWorkers() {
	for i := range ws.workers {
		close(ws.workers[i].start)
	}
	ws.workers = nil
}
