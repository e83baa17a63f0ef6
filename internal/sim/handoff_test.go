package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests for what the coroutine hand-off moved: who fires an event (a parked
// process inline, or the Run caller), who resumes a process, and what becomes
// of parked processes when Run gives up.

// TestCallbackPanicInsideInlineLoop: an At callback that panics while a
// parked process is the one firing events unwinds through that process's
// body, and must still reach the Run caller as a recoverable *ProcPanic.
func TestCallbackPanicInsideInlineLoop(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(e *Engine)
	}{
		{"At", func(e *Engine) { e.At(1, func() { panic("callback fault") }) }},
		{"AtCall", func(e *Engine) { e.AtCall(1, func(arg any) { panic(arg) }, "callback fault") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(2) }) // its own wake is next: it fires t=1 inline
			tc.schedule(e)
			defer func() {
				pp, ok := recover().(*ProcPanic)
				if !ok || pp.Value != "callback fault" || pp.Proc != "sleeper" {
					t.Fatalf("recovered %v, want ProcPanic(callback fault) in sleeper", pp)
				}
				if !strings.Contains(string(pp.Stack), "TestCallbackPanicInsideInlineLoop") {
					t.Fatalf("stack does not reach the callback:\n%s", pp.Stack)
				}
			}()
			e.Run()
			t.Fatal("Run returned despite callback panic")
		})
	}
}

// TestRunUntilResumesAcrossHorizon parks a process mid-Sleep across a
// RunUntil horizon and checks a later RunUntil/Run resumes it at the right
// virtual time: once when its own wake is the next event (it parks inline
// and only the horizon makes it yield) and once with another process's wake
// in between (it yields to that process first).
func TestRunUntilResumesAcrossHorizon(t *testing.T) {
	for _, other := range []bool{false, true} {
		t.Run(fmt.Sprintf("otherProcess=%v", other), func(t *testing.T) {
			e := NewEngine(1)
			var woke []string
			note := func(p *Proc) { woke = append(woke, fmt.Sprintf("%s@%g", p.name, p.Now())) }
			e.Spawn("long", func(p *Proc) {
				p.Sleep(10)
				note(p)
				p.Sleep(10)
				note(p)
			})
			want := []string{"long@10", "long@20"}
			if other {
				e.Spawn("short", func(p *Proc) {
					p.Sleep(7)
					note(p)
					p.Sleep(8)
					note(p)
				})
				want = []string{"short@7", "long@10", "short@15", "long@20"}
			}
			if now := e.RunUntil(5); now != 5 || len(woke) != 0 {
				t.Fatalf("RunUntil(5): now=%g woke=%v, want 5 and nobody", now, woke)
			}
			if now := e.RunUntil(12); now != 12 || !reflect.DeepEqual(woke, want[:len(want)/2]) {
				t.Fatalf("RunUntil(12): now=%g woke=%v, want 12 and %v", now, woke, want[:len(want)/2])
			}
			if end := e.Run(); end != 20 || !reflect.DeepEqual(woke, want) {
				t.Fatalf("Run: end=%g woke=%v, want 20 and %v", end, woke, want)
			}
		})
	}
}

// TestHandOffChain drives a ring a→b→c→a in which every member signals the
// next one and parks, a whole lap at one virtual instant, so every resume
// ends by handing off to another process. The trace and the event count are
// those of the channel-token engine this one replaced.
func TestHandOffChain(t *testing.T) {
	e := NewEngine(1)
	names := []string{"a", "b", "c"}
	conds := []*Cond{NewCond(e), NewCond(e), NewCond(e)}
	turn := 0
	var trace []string
	for i, name := range names {
		i := i
		e.Spawn(name, func(p *Proc) {
			for lap := 0; lap < 3; lap++ {
				for turn != i {
					conds[i].Wait(p)
				}
				trace = append(trace, fmt.Sprintf("%s@%g", p.name, p.Now()))
				if i == len(names)-1 {
					p.Sleep(1) // the ring's last member moves the clock between laps
				}
				turn = (i + 1) % len(names)
				conds[turn].Signal()
			}
		})
	}
	end := e.Run()
	want := []string{"a@0", "b@0", "c@0", "a@1", "b@1", "c@1", "a@2", "b@2", "c@2"}
	if !reflect.DeepEqual(trace, want) || end != 3 || e.EventsFired != 12 {
		t.Fatalf("trace=%v end=%g events=%d, want %v, 3 and 12", trace, end, e.EventsFired, want)
	}
}

// waitGoroutines waits for goroutines that are on their way out (shard
// workers after their start channel closed) and fails if the count stays
// above want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > want; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines left, want %d: an abandoned engine leaks its processes", runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// parkRanks spawns np processes that park on a Cond nobody signals.
func parkRanks(e *Engine, np int) {
	c := NewCond(e)
	for r := 0; r < np; r++ {
		e.Spawn(fmt.Sprintf("rank%d", r), func(p *Proc) { c.Wait(p) })
	}
}

// TestAbandonedEngineFreesItsProcesses: a Run that ends in a *ProcPanic or a
// deadlock diagnosis leaves processes parked that nothing will ever wake. A
// failed runner job used to leak one goroutine per rank that way.
func TestAbandonedEngineFreesItsProcesses(t *testing.T) {
	mustPanic := func(run func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("Run returned")
			}
		}()
		run()
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := NewEngine(1)
		parkRanks(e, 16)
		if i%2 == 0 { // odd rounds deadlock, even ones fault
			e.Spawn("boom", func(p *Proc) {
				p.Sleep(1)
				e.Spawn("unstarted", func(p *Proc) {}) // its first wake never fires
				panic("fault")
			})
		}
		mustPanic(func() { e.Run() })

		engs := []*Engine{NewEngine(1), NewEngine(2)}
		parkRanks(engs[0], 8)
		parkRanks(engs[1], 8)
		if i%2 == 0 {
			engs[1].Spawn("boom", func(p *Proc) { p.Sleep(1); panic("fault") })
		}
		mustPanic(func() { NewWindows(engs, 1).Run() })
	}
	waitGoroutines(t, base)
}

// TestPollPanicNamesItsOwner: a poll runs in event context on whichever
// goroutine is firing events. When it panics while another process fires, Run
// must still blame the process the poll belongs to, with the stack of the
// panic site.
func TestPollPanicNamesItsOwner(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	e.Spawn("owner", func(p *Proc) {
		calls := 0
		p.ParkUntil(pollFunc(func() bool {
			if calls++; calls > 1 {
				panic("poll fault") // the second call: woken by firer's Broadcast
			}
			c.Block(p)
			return false
		}))
	})
	e.Spawn("firer", func(p *Proc) {
		c.Broadcast()
		p.Sleep(1) // fires owner's ticket, and with it the poll, from in here
	})
	defer func() {
		pp, ok := recover().(*ProcPanic)
		if !ok || pp.Value != "poll fault" || pp.Proc != "owner" {
			t.Fatalf("recovered %v, want ProcPanic(poll fault) in owner", pp)
		}
		if !strings.Contains(string(pp.Stack), "TestPollPanicNamesItsOwner") {
			t.Fatalf("stack does not reach the poll:\n%s", pp.Stack)
		}
	}()
	e.Run()
	t.Fatal("Run returned despite poll panic")
}

// TestPanicFiredByRunCallerFreesProcesses: after a process has finished it is
// the Run caller that fires events, and a panic from there — a plain
// callback's, which nobody wraps, or a deferred call's — must unwind the
// parked processes like a process fault does.
func TestPanicFiredByRunCallerFreesProcesses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(e *Engine)
		want  any
	}{
		{"callback", func(e *Engine) {
			e.AtCall(1, func(arg any) { panic(arg) }, "callback fault")
		}, "callback fault"},
		{"deferred call", func(e *Engine) {
			e.Spawn("owner", func(p *Proc) {
				p.Advance(1)
				p.DoH(e.Handle(func(_, _ int32) { panic("call fault") }), 0, 0)
			})
		}, &ProcPanic{Proc: "owner", Value: "call fault"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine(1)
			parkRanks(e, 8)
			tc.fault(e)
			e.Spawn("ender", func(p *Proc) {}) // the last process to run at t=0 returns: Run fires t=1
			defer func() {
				r := recover()
				if pp, ok := r.(*ProcPanic); ok {
					pp.Stack = nil
				}
				if !reflect.DeepEqual(r, tc.want) {
					t.Fatalf("recovered %v, want %v", r, tc.want)
				}
				waitGoroutines(t, base)
			}()
			e.Run()
			t.Fatal("Run returned")
		})
	}
}

// BenchmarkProcHandOff is BenchmarkProcContextSwitch's sibling: there one
// process sleeps alone, so every park resumes inline (no switch); here two
// processes alternate, so every park hands off to the other one.
func BenchmarkProcHandOff(b *testing.B) {
	e := NewEngine(1)
	for _, offset := range []Time{0, 0.5e-6} {
		e.Spawn("p", func(p *Proc) {
			p.Sleep(offset)
			for i := 0; i < b.N; i += 2 {
				p.Sleep(1e-6)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// pollFunc adapts a closure to the Poller ParkUntil takes.
type pollFunc func() bool

func (f pollFunc) Poll() bool { return f() }
