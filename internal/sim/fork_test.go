package sim

import "testing"

// TestSnapshotRequiresQuiescence checks the descriptive failure modes:
// queued events and live processes both refuse to snapshot.
func TestSnapshotRequiresQuiescence(t *testing.T) {
	e := NewEngine(1)
	e.At(1, func() {})
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("snapshot with a queued event must fail")
	}
	e.Run()

	e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
	e.RunUntil(5)
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("snapshot with a live process must fail")
	}
	e.Run()
	if _, err := e.Snapshot(); err != nil {
		t.Fatalf("snapshot after Run drained everything: %v", err)
	}
}

// forkWorkload runs an identical program on an engine and returns its noise
// observations; used to compare forks against each other.
func forkWorkload(e *Engine) []float64 {
	var obs []float64
	for r := 0; r < 4; r++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(1e-6 * (1 + e.Rand().Float64()))
				obs = append(obs, e.Rand().NormFloat64())
			}
		})
	}
	e.Run()
	obs = append(obs, e.Now(), float64(e.EventsFired))
	return obs
}

// TestForkDeterminism forks the same snapshot twice and requires the two
// forks to replay an identical program identically: same event counts, same
// final clock, same noise draws — and independently of whether the parent
// keeps running in between.
func TestForkDeterminism(t *testing.T) {
	e := NewEngine(7)
	forkWorkload(e) // advance the parent to an interesting state
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	f1 := snap.Fork()
	a := forkWorkload(f1)
	forkWorkload(e) // mutate the parent between the two forks
	f2 := snap.Fork()
	b := forkWorkload(f2)

	if len(a) != len(b) {
		t.Fatalf("fork observation lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fork observation %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if f1.Now() == snap.Now() {
		t.Fatal("fork workload did not advance the clock")
	}
}

// TestForkPreservesPool pins the pool half of the snapshot contract: the
// fork starts with the parent's pool size and free-list order, so it is as
// warm as the parent and allocates records in the parent's order.
func TestForkPreservesPool(t *testing.T) {
	e := NewEngine(3)
	for i := 0; i < 32; i++ {
		e.At(float64(i), func() {})
	}
	e.Run()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f := snap.Fork()
	if len(f.recs) != len(e.recs) || len(f.heap) != 0 {
		t.Fatalf("fork pool size %d with %d queued, parent pool %d", len(f.recs), len(f.heap), len(e.recs))
	}
	for i := range e.free {
		if f.free[i] != e.free[i] {
			t.Fatalf("free-list slot %d: %d in fork, %d in parent", i, f.free[i], e.free[i])
		}
	}
}

// TestForkSteadyStateAllocFree extends the zero-allocation pin to forks: a
// fork inherits a warm pool, so scheduling and firing events in it allocates
// nothing once its heap has grown to working size.
func TestForkSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4096; i++ {
		e.AtCall(float64(i)*1e-6, nopCall, nil)
	}
	e.Run()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f := snap.Fork()
	run := func(n int) {
		for i := 0; i < n; i++ {
			f.AtCall(float64(i)*1e-6, nopCall, nil)
		}
		f.Run()
	}
	run(4096) // grow the fork's heap once
	const batch = 1024
	allocs := testing.AllocsPerRun(10, func() { run(batch) })
	if per := allocs / batch; per > 0.01 {
		t.Fatalf("fork steady state allocates %.4f allocs/event, want ~0", per)
	}
}
