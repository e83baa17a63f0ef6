package sim

import (
	"strings"
	"testing"
)

// TestRunWindowExclusiveBoundary pins the strict horizon: an event at
// exactly the window end must not fire inside the window (a cross-shard
// message can land precisely at now + lookahead).
func TestRunWindowExclusiveBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []float64
	e.At(1, func() { fired = append(fired, 1) })
	e.At(2, func() { fired = append(fired, 2) })
	e.runWindow(2)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("window [*,2) fired %v, want [1]", fired)
	}
	e.runWindow(3)
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("second window fired %v, want [1 2]", fired)
	}
}

// TestInjectAtExact pins that injection places the event at the exact
// absolute time, with no relative-delay float round trip.
func TestInjectAtExact(t *testing.T) {
	e := NewEngine(1)
	// Move the clock to an awkward value first.
	e.At(0.1+0.2, func() {})
	e.Run()
	target := 1.0000000000000002 // representable, but (target-now)+now != target in general
	var at float64 = -1
	e.InjectH(target, e.Handle(func(_, _ int32) { at = e.Now() }), 0, 0)
	e.Run()
	if at != target {
		t.Fatalf("injected event fired at %v, want exactly %v", at, target)
	}
}

// TestWindowsCrossShardExchange runs a sender process on shard 0 and a
// receiver process on shard 1 that exchange events through the outbox, and
// checks both shards' clocks advance and the exchange completes. Both
// processes are spawned here, on the test goroutine, and resumed by the shard
// workers: a coroutine may be resumed from any goroutine whose thread-lock
// state matches its creator's, which is why the workers are not pinned.
func TestWindowsCrossShardExchange(t *testing.T) {
	engs := []*Engine{NewEngine(1), NewEngine(2)}
	ws := NewWindows(engs, 0.5)
	var got []float64
	arrived, pending := NewCond(engs[1]), 0
	// A cross-shard event names a handler in the receiving engine's table, so
	// both engines register the handler, at the same place.
	deliver := func(a, b int32) { pending++; arrived.Signal() }
	h := engs[1].Handle(deliver)
	if engs[0].Handle(deliver) != h {
		t.Fatal("engines disagree on a handler registered in the same order")
	}
	// The sender emits three messages, each one lookahead ahead of its clock.
	engs[0].Spawn("sender", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			tt := float64(i)
			p.Sleep(tt - 0.5 - p.Now())
			ws.Outbox(0).Add(tt, 0, uint64(i), 1, h, 0, 0)
		}
	})
	engs[1].Spawn("receiver", func(p *Proc) {
		for len(got) < 3 {
			for pending == 0 {
				arrived.Wait(p)
			}
			pending--
			got = append(got, p.Now())
		}
	})
	end := ws.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("deliveries at %v, want [1 2 3]", got)
	}
	if end != 3 {
		t.Fatalf("global end time %v, want 3", end)
	}
	if ws.Barriers == 0 || ws.Injected != 3 {
		t.Fatalf("barriers=%d injected=%d, want >0 and 3", ws.Barriers, ws.Injected)
	}
}

// TestWindowsCanonicalMergeOrder checks that simultaneous cross-shard
// events are injected in (T, Src, Seq) order regardless of the order they
// entered the outboxes.
func TestWindowsCanonicalMergeOrder(t *testing.T) {
	engs := []*Engine{NewEngine(1), NewEngine(2), NewEngine(3)}
	ws := NewWindows(engs, 0.25)
	var order []int32
	var note Handler
	for _, e := range engs {
		note = e.Handle(func(src, _ int32) { order = append(order, src) })
	}
	// Shards 0 and 1 both send to shard 2 at the same virtual time, appended
	// in scrambled producer order.
	engs[1].At(0, func() {
		ws.Outbox(1).Add(1, 7, 0, 2, note, 7, 0)
		ws.Outbox(1).Add(1, 5, 1, 2, note, 5, 0)
	})
	engs[0].At(0, func() {
		ws.Outbox(0).Add(1, 9, 0, 2, note, 9, 0)
		ws.Outbox(0).Add(1, 2, 0, 2, note, 2, 0)
	})
	ws.Run()
	want := []int32{2, 5, 7, 9}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestWindowsProcPanicPropagates re-raises a process panic from a shard
// worker on the Run caller; the process parked on the other shard is unwound
// (TestAbandonedEngineFreesItsProcesses counts the goroutines).
func TestWindowsProcPanicPropagates(t *testing.T) {
	engs := []*Engine{NewEngine(1), NewEngine(2)}
	ws := NewWindows(engs, 1)
	bystander := engs[0].Spawn("bystander", func(p *Proc) { NewCond(engs[0]).Wait(p) })
	engs[1].Spawn("boom", func(p *Proc) { p.Sleep(2); panic("shard fault") })
	defer func() {
		r := recover()
		pp, ok := r.(*ProcPanic)
		if !ok || pp.Value != "shard fault" {
			t.Fatalf("recovered %v, want ProcPanic(shard fault)", r)
		}
		if !bystander.Done() {
			t.Fatal("the process parked on the healthy shard was left behind")
		}
	}()
	ws.Run()
	t.Fatal("Run returned despite process panic")
}

// TestWindowsDeadlockDiagnosis panics with the parked processes when the
// whole sharded world runs dry with procs still parked.
func TestWindowsDeadlockDiagnosis(t *testing.T) {
	engs := []*Engine{NewEngine(1), NewEngine(2)}
	ws := NewWindows(engs, 1)
	engs[0].Spawn("stuck", func(p *Proc) {
		c := NewCond(engs[0])
		c.Wait(p) // nobody will ever signal
	})
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "PDES deadlock") || !strings.Contains(s, "stuck(shard 0)") {
			t.Fatalf("recovered %v, want PDES deadlock naming stuck(shard 0)", r)
		}
	}()
	ws.Run()
	t.Fatal("Run returned despite deadlock")
}

// TestWindowsSecondProgramStartsAtCommonClock runs two programs back to back
// on the same engines: the first leaves its processes at different last-event
// times, and the second must still start every process at the one global
// final time, whatever the partition.
func TestWindowsSecondProgramStartsAtCommonClock(t *testing.T) {
	const procs = 4
	for _, shards := range []int{1, 2, 4} {
		engs := make([]*Engine, shards)
		for s := range engs {
			engs[s] = NewEngine(1)
		}
		ws := NewWindows(engs, 0.5)
		for i := 0; i < procs; i++ {
			d := float64(i + 1)
			engs[i*shards/procs].Spawn("first", func(p *Proc) { p.Sleep(d) })
		}
		if end := ws.Run(); end != procs {
			t.Fatalf("shards=%d: first program ended at %v, want %d", shards, end, procs)
		}
		starts := make([]float64, procs)
		for i := 0; i < procs; i++ {
			i := i
			engs[i*shards/procs].Spawn("second", func(p *Proc) { starts[i] = p.Now(); p.Sleep(1) })
		}
		if end := ws.Run(); end != procs+1 {
			t.Fatalf("shards=%d: second program ended at %v, want %d", shards, end, procs+1)
		}
		for i, s := range starts {
			if s != procs {
				t.Fatalf("shards=%d: process %d of the second program started at %v, want %d", shards, i, s, procs)
			}
		}
	}
}
