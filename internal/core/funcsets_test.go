package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/platform"
)

// builtinDecls lists every process-wide declaration whose functions may keep
// a memo.
var builtinDecls = []*setDecl{ibcastSet, ialltoallSet, ialltoallExtSet, ialltoallPrimSet, iallgatherSet, ireduceSet,
	iallreduceSet, iallreduceFallbackSet, ibcastScalableSet, iallgatherScalableSet, ibarrierSet, neighborhoodGridSet}

// memoSize counts the schedules the built-in declarations keep, each memo
// once (the all-to-all sets share their point-to-point functions' memos).
func memoSize() int {
	seen, n := map[*schedMemo]bool{}, 0
	for _, d := range builtinDecls {
		for _, f := range d.fns {
			if m := f.memo; m != nil && !seen[m] {
				seen[m] = true
				m.mu.Lock()
				n += len(m.scheds)
				m.mu.Unlock()
			}
		}
	}
	return n
}

// memoized returns the schedule fn's memo keeps for shape k, nil for none.
func memoized(fn *fnDecl, k memoKey) *nbc.Schedule {
	fn.memo.mu.Lock()
	defer fn.memo.mu.Unlock()
	return fn.memo.scheds[k]
}

// TestTwoWorldsStartOneSchedule: two worlds of one spec start the same
// schedules. After the first world started every function of the Ibcast set,
// its declaration keeps one schedule per function and rank; the second world
// starts those and adds none.
func TestTwoWorldsStartOneSchedule(t *testing.T) {
	const np, msg = 8, 3 << 15
	ibcast := mustOp(t, "ibcast")
	kept := make([][]*nbc.Schedule, len(ibcastSet.fns)) // function, rank
	for world := 0; world < 2; world++ {
		before := memoSize()
		onEveryRank(t, np, func(c *mpi.Comm) {
			fs, err := ibcast.Set(c, msg, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i, f := range fs.Fns {
				f.Start().Wait()
				s := memoized(&ibcastSet.fns[i], memoKey{np, c.Rank(), 0, msg, msg})
				if world == 0 {
					if kept[i] == nil {
						kept[i] = make([]*nbc.Schedule, np)
					}
					kept[i][c.Rank()] = s
				}
				if s == nil || s != kept[i][c.Rank()] {
					t.Errorf("world %d, rank %d, %s: kept schedule %p, the first world's %p", world, c.Rank(), f.Name, s, kept[i][c.Rank()])
				}
			}
		})
		if grew := memoSize() - before; world == 1 && grew != 0 {
			t.Errorf("the second world added %d schedules to the memos", grew)
		}
	}
}

// TestPerBindingSchedules: a schedule that holds or reads more of its binding
// than the shape compiles per binding and stays out of every memo — a data
// spec's (its tables hold the world's buffers), ialltoall-prim's put
// functions (the binding's window) and ibcast-scalable's torus functions (the
// comm's placement).
func TestPerBindingSchedules(t *testing.T) {
	const np, msg = 4, 4096
	real := func(n int) mpi.Buf { return mpi.Bytes(make([]byte, n)) }
	for _, tc := range []struct {
		op    string
		fn    int
		alloc func(int) mpi.Buf
	}{
		{"ibcast", 0, real},
		{"ialltoall", 2, real},
		{"ialltoall-prim", 3, mpi.Virtual},
		{"ialltoall-prim", 4, mpi.Virtual},
		{"ibcast-scalable", 6, mpi.Virtual},
	} {
		op := mustOp(t, tc.op)
		d, _ := op.decl(np)
		fn := &d.fns[tc.fn]
		before := memoSize()
		for world := 0; world < 2; world++ {
			onEveryRank(t, np, func(c *mpi.Comm) {
				send, recv := op.Buffers(np, msg, tc.alloc)
				b := bind(c, send, recv, 0, d)
				if d.hook != nil {
					if err := d.hook(b); err != nil {
						t.Error(err)
						return
					}
				}
				b.fs.Fns[tc.fn].Start().Wait()
				if fn.schedule(b) == fn.schedule(b) {
					t.Errorf("%s %s: one binding got one schedule twice", tc.op, fn.name)
				}
			})
		}
		if after := memoSize(); after != before {
			t.Errorf("%s %s: the memos went from %d to %d schedules", tc.op, fn.name, before, after)
		}
	}
}

// TestMocksKeepNoSchedules: a guideline mock's declaration is built per call,
// so starting a mock compiles per binding and adds nothing to the memos.
func TestMocksKeepNoSchedules(t *testing.T) {
	const np = 4
	before := memoSize()
	for _, name := range MockNames() {
		def, _ := MockByName(name)
		op := mustOp(t, def.Op)
		onEveryRank(t, np, func(c *mpi.Comm) {
			fs, err := op.Set(c, 4096, []string{name})
			if err != nil {
				t.Error(err)
				return
			}
			fs.Fns[fs.IndexOf(name)].Start().Wait()
			ms, err := MockSet(c, name, 4096)
			if err != nil {
				t.Error(err)
				return
			}
			ms.Fns[0].Start().Wait()
		})
	}
	if after := memoSize(); after != before {
		t.Errorf("starting the mocks took the memos from %d to %d schedules", before, after)
	}
}

// TestConcurrentBindsShareOneSchedule: two worlds bound and run at once on
// two goroutines, as sweep -jobs and speculation's candidate pool run them,
// compile one schedule per rank of a shared shape, not one per world: the
// second binding of a shape waits for the first's compile and starts it.
// Under -race a memo read or written without its lock shows as a race.
func TestConcurrentBindsShareOneSchedule(t *testing.T) {
	const np = 8
	var compiles atomic.Int32
	decl := &setDecl{name: "probe", fns: []fnDecl{{name: "counted", memo: &schedMemo{}, sched: func(*binding, []int) *nbc.Schedule {
		compiles.Add(1)
		return &nbc.Schedule{Name: "counted"}
	}}}}
	started := make([][np]*nbc.Schedule, 2) // world, rank
	var wg sync.WaitGroup
	for world := range started {
		_, w, err := platform.Crill().NewWorld(np, 5)
		if err != nil {
			t.Fatal(err)
		}
		w.Start(func(c *mpi.Comm) {
			b := bind(c, mpi.Virtual(64), mpi.Virtual(64), 0, decl)
			b.fs.Fns[0].Start().Wait()
			started[world][c.Rank()] = decl.fns[0].schedule(b)
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run()
		}()
	}
	wg.Wait()
	if n := compiles.Load(); n != np {
		t.Errorf("two worlds of %d ranks compiled %d schedules, want %d", np, n, np)
	}
	if started[0] != started[1] {
		t.Errorf("the two worlds' ranks hold different schedules")
	}
}
