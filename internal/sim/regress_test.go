package sim

import (
	"errors"
	"runtime"
	"testing"
	"unsafe"
)

// Regression tests for the pooled-event execution core: generation-checked
// wake tickets, panic propagation, and the allocation-free steady state. These are deliberately white-box — they pin the internal
// invariants (free-list recycling, ticket coalescing) that the public-API
// tests in engine_test.go cannot reach.

// TestStaleWakeTicketDropped injects a wake ticket carrying an outdated park
// generation while the process is parked on a newer one. The event loop
// must drop it, so the process sleeps its full duration instead of waking
// early. This is the mechanism behind wake coalescing and behind Cond's
// "stale broadcast" safety.
func TestStaleWakeTicketDropped(t *testing.T) {
	e := NewEngine(1)
	var wokeAt Time = -1
	p := e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1)  // parks on gen 2
		p.Sleep(10) // parks on gen 3
		wokeAt = p.Now()
	})
	// At t=2 the proc is parked on its second sleep (gen 3). A ticket for
	// gen 2 must be dropped, not resume it.
	e.At(2, func() { e.wakeAt(e.now, p.id, 2) })
	end := e.Run()
	if wokeAt != 11 {
		t.Fatalf("stale ticket woke the process early: woke at %g, want 11", wokeAt)
	}
	if end != 11 {
		t.Fatalf("run ended at %g, want 11", end)
	}
	// A ticket for a finished process is likewise dropped without incident.
	e.wakeAt(e.now, p.id, 99)
	e.Run()
}

// TestWakeTicketCoalescing pushes two same-instant tickets for the same park
// generation. The first resumes the waiter; by the time the second pops, the
// waiter has re-parked on a new generation, so the duplicate is dropped — the
// waiter observes exactly one (spurious) wakeup, not two.
func TestWakeTicketCoalescing(t *testing.T) {
	e := NewEngine(1)
	cond := NewCond(e)
	ready := false
	spurious := 0
	p := e.Spawn("waiter", func(p *Proc) {
		for !ready {
			cond.Wait(p)
			if !ready {
				spurious++
			}
		}
	})
	e.At(1, func() {
		g := p.gen // the generation of the current park
		e.wakeAt(e.now, p.id, g)
		e.wakeAt(e.now, p.id, g)
	})
	e.At(2, func() {
		ready = true
		cond.Broadcast()
	})
	e.Run()
	if spurious != 1 {
		t.Fatalf("got %d spurious wakeups from two coalescible tickets, want 1", spurious)
	}
}

// TestCondSpuriousWakeupRequiresPredicateLoop is the black-box companion: a
// Broadcast that races ahead of the predicate flip is a legal spurious wakeup,
// and a waiter that re-checks in a loop (the documented contract) survives it.
func TestCondSpuriousWakeupRequiresPredicateLoop(t *testing.T) {
	e := NewEngine(1)
	cond := NewCond(e)
	ready := false
	spurious := 0
	finished := false
	e.Spawn("waiter", func(p *Proc) {
		for !ready {
			cond.Wait(p)
			if !ready {
				spurious++
			}
		}
		finished = true
	})
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(1)
		cond.Broadcast() // predicate still false: spurious for the waiter
		p.Sleep(1)
		ready = true
		cond.Broadcast()
	})
	e.Run()
	if !finished {
		t.Fatal("waiter never finished")
	}
	if spurious != 1 {
		t.Fatalf("waiter saw %d spurious wakeups, want exactly 1", spurious)
	}
}

func TestProcPanicRecoverable(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("victim", func(p *Proc) {
		p.Sleep(3)
		panic("boom")
	})
	var pp *ProcPanic
	func() {
		defer func() {
			r := recover()
			var ok bool
			if pp, ok = r.(*ProcPanic); !ok {
				t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
			}
		}()
		e.Run()
	}()
	if pp.Proc != "victim" {
		t.Fatalf("panic attributed to %q, want \"victim\"", pp.Proc)
	}
	if pp.Value != "boom" {
		t.Fatalf("panic value %v, want \"boom\"", pp.Value)
	}
	if len(pp.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	if pp.Unwrap() != nil {
		t.Fatalf("string panic must not unwrap to an error: %v", pp.Unwrap())
	}
}

func TestProcPanicUnwrapsError(t *testing.T) {
	e := NewEngine(1)
	sentinel := errors.New("kernel fault")
	e.Spawn("victim", func(p *Proc) { panic(sentinel) })
	defer func() {
		pp, ok := recover().(*ProcPanic)
		if !ok {
			t.Fatal("expected *ProcPanic")
		}
		if !errors.Is(pp, sentinel) {
			t.Fatalf("errors.Is must see through ProcPanic to the original error")
		}
	}()
	e.Run()
}

// nopCall is package-level so AtCall sites in the alloc test do not close
// over anything.
func nopCall(any) {}

// TestSteadyStateAllocFree pins the tentpole's core performance claim: once
// the record pool and heap have grown to working size, scheduling and firing
// events allocates nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(1)
	run := func(n int) {
		for i := 0; i < n; i++ {
			e.AtCall(float64(i)*1e-6, nopCall, nil)
		}
		e.Run()
	}
	run(4096) // warm the pool, heap, and free list
	const batch = 1024
	allocs := testing.AllocsPerRun(10, func() { run(batch) })
	if per := allocs / batch; per > 0.01 {
		t.Fatalf("steady state allocates %.4f allocs/event, want ~0", per)
	}
}

// TestLanePoolGrowsInChunks pins what a first run pays for the lane pool:
// growing it to N entries allocates the N entries plus at most one chunk
// (32 KiB) of spares, and nothing is copied on the way: chunks of 16 entries
// and up double to 1 024 entries, then every chunk has 1 024, and an entry
// stays at its address however far the pool grows. An entry is 32 bytes and
// holds no pointer. Entries freed by firing are drawn again before any new
// chunk. The appends take the handler form, which boxes nothing.
func TestLanePoolGrowsInChunks(t *testing.T) {
	const n = 100_000
	e := NewEngine(1)
	var l Lane
	l.Bind(e)
	nop := e.Handle(func(_, _ int32) {})
	l.AppendH(0, nop, 0, 0)
	first := e.lanePool.at(e.lanes[l.id].head)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < n; i++ {
		l.AppendH(float64(i), nop, int32(i), 0)
	}
	runtime.ReadMemStats(&after)
	entry := uint64(unsafe.Sizeof(laneEnt{}))
	if entry > 32 {
		t.Errorf("a lane entry grew to %d bytes, over its 32", entry)
	}
	if got := e.lanePool.at(e.lanes[l.id].head); got != first {
		t.Error("the first entry moved while the pool grew")
	}
	carved, want := 0, 0
	for c, ch := range e.lanePool.chunks {
		if len(ch) != want {
			t.Fatalf("chunk %d holds %d entries, want %d", c, len(ch), want)
		}
		carved += len(ch)
		want = min(max(2*want, laneFirst), laneChunk)
	}
	if carved < n || carved >= n+laneChunk {
		t.Errorf("%d entries carved for %d live ones, want fewer than one chunk to spare", carved, n)
	}
	// 16 KiB covers the chunk directory's own growth (a 24-byte header per
	// chunk, doubled by append) and the rounding of the last chunk up to a
	// page.
	if got, limit := after.TotalAlloc-before.TotalAlloc, n*entry+laneChunk*entry+16<<10; got > limit {
		t.Fatalf("growing the lane pool to %d entries of %d B allocated %d B, want under %d B", n, entry, got, limit)
	}
	e.Run()
	chunks := len(e.lanePool.chunks)
	for i := 0; i < n; i++ {
		l.AppendH(e.Now()+float64(i), nop, int32(i), 0)
	}
	if len(e.lanePool.chunks) != chunks {
		t.Errorf("refilling the drained pool carved %d new chunks, want none", len(e.lanePool.chunks)-chunks)
	}
	e.Run()
}

// TestNewEngineAllocs pins what an engine costs before it runs: its random
// source (a 607-word math/rand state, about 4.9 KB) is built on the first Rand
// call, so NewEngine allocates under 1 KiB, and the stream it then draws is
// the one an eagerly seeded source gives. A snapshot of an engine that never
// drew records no stream, and its fork builds the parent's from the seed.
func TestNewEngineAllocs(t *testing.T) {
	var before, after runtime.MemStats
	const engines = 64
	keep := make([]*Engine, engines)
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewEngine(int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / engines; per >= 1<<10 {
		t.Errorf("NewEngine allocates %d B, want under 1 KiB", per)
	}
	if got, want := keep[5].Rand().Int63(), NewClonableRand(5).Rand.Int63(); got != want {
		t.Errorf("the lazily built stream drew %d first, want %d", got, want)
	}
	snap, err := keep[6].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.rng != nil || keep[6].rng != nil {
		t.Error("a snapshot of an engine that never drew built its stream")
	}
	if got, want := snap.Fork().Rand().Int63(), NewClonableRand(6).Rand.Int63(); got != want {
		t.Errorf("the fork of an undrawn engine drew %d first, want %d", got, want)
	}
	t.Logf("NewEngine allocates %d B", (after.TotalAlloc-before.TotalAlloc)/engines)
}
