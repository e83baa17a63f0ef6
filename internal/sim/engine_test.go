package sim

import (
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []float64
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time = %g, want 3", end)
	}
	if !sort.Float64sAreSorted(got) || len(got) != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine(1).At(-1, func() {})
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var at1, at2 Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1.5)
		at1 = p.Now()
		p.Sleep(0.5)
		at2 = p.Now()
	})
	e.Run()
	if at1 != 1.5 || at2 != 2.0 {
		t.Fatalf("sleep times: %g %g, want 1.5 2.0", at1, at2)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func(seed int64) []string {
		e := NewEngine(seed)
		var trace []string
		for _, d := range []struct {
			name string
			dt   float64
		}{{"a", 0.3}, {"b", 0.2}, {"c", 0.25}} {
			d := d
			e.Spawn(d.name, func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Sleep(d.dt)
					trace = append(trace, d.name)
				}
			})
		}
		e.Run()
		return trace
	}
	t1, t2 := run(7), run(7)
	// The interleaving is the queue's (time, sequence) order and nothing
	// else: which goroutine fires an event or resumes a process must not show.
	if got, want := strings.Join(t1, ""), "bcabcabcbaca"; got != want {
		t.Fatalf("trace %q, want %q", got, want)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("nondeterministic trace: %v vs %v", t1, t2)
		}
	}
}

func TestCondWaitBroadcast(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	ready := false
	var woke []string
	for _, n := range []string{"w1", "w2"} {
		n := n
		e.Spawn(n, func(p *Proc) {
			for !ready {
				c.Wait(p)
			}
			woke = append(woke, n)
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(1)
		ready = true
		c.Broadcast()
	})
	e.Run()
	if len(woke) != 2 || woke[0] != "w1" || woke[1] != "w2" {
		t.Fatalf("woke = %v, want [w1 w2]", woke)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	var n atomic.Int32
	proceed := make([]bool, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			for !proceed[i] {
				c.Wait(p)
			}
			n.Add(1)
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(1)
		proceed[0] = true
		c.Signal() // wakes w0 which finishes
		proceed[1] = true
	})
	// w1 never re-signaled -> deadlock expected.
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
		if n.Load() != 1 {
			t.Fatalf("signaled %d procs, want exactly 1", n.Load())
		}
	}()
	e.Run()
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func() { count++ })
	}
	e.RunUntil(5)
	if count != 5 {
		t.Fatalf("fired %d events by t=5, want 5", count)
	}
	if e.Now() != 5 {
		t.Fatalf("now = %g, want 5", e.Now())
	}
	e.RunUntil(100)
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the engine clock ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine(3)
		var fired []float64
		for _, r := range raw {
			d := float64(r) / 100
			e.At(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: spawning N processes that each sleep a random duration finishes
// with a final clock equal to the maximum duration.
func TestSpawnSleepProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine(5)
		maxd := 0.0
		for i, r := range raw {
			d := float64(r) / 10
			if d > maxd {
				maxd = d
			}
			e.Spawn("p", func(p *Proc) { p.Sleep(d) })
			_ = i
		}
		return e.Run() == maxd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRandDeterministic(t *testing.T) {
	a, b := NewEngine(42).Rand().Int63(), NewEngine(42).Rand().Int63()
	if a != b {
		t.Fatal("engine RNG not deterministic for equal seeds")
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.At(float64(i)*1e-6, func() {})
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1e-6)
		}
	})
	b.ResetTimer()
	e.Run()
}
