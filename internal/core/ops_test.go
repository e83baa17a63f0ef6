package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/platform"
)

// onEveryRank runs prog on every rank of a fresh np-rank crill world.
func onEveryRank(t *testing.T, np int, prog func(c *mpi.Comm)) {
	t.Helper()
	_, w, err := platform.Crill().NewWorld(np, 5)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(prog)
	w.Run()
}

// opFunctions pins every catalogue op's function names, in index order, as
// they were when each driver still had its own op switch. iallreduce lists
// the power-of-two shape; elsewhere its two algorithms compile to one.
var opFunctions = map[string][]string{
	"ialltoall":      {"ialltoall-linear", "ialltoall-dissemination", "ialltoall-pairwise"},
	"ialltoall-ext":  {"ialltoall-linear", "ialltoall-dissemination", "ialltoall-pairwise", "alltoall-blocking"},
	"ialltoall-prim": {"ialltoall-linear", "ialltoall-dissemination", "ialltoall-pairwise", "ialltoall-linear-put", "ialltoall-pairwise-put"},
	"ibcast": {
		"ibcast-linear-seg32k", "ibcast-linear-seg64k", "ibcast-linear-seg128k",
		"ibcast-chain-seg32k", "ibcast-chain-seg64k", "ibcast-chain-seg128k",
		"ibcast-2-ary-seg32k", "ibcast-2-ary-seg64k", "ibcast-2-ary-seg128k",
		"ibcast-3-ary-seg32k", "ibcast-3-ary-seg64k", "ibcast-3-ary-seg128k",
		"ibcast-4-ary-seg32k", "ibcast-4-ary-seg64k", "ibcast-4-ary-seg128k",
		"ibcast-5-ary-seg32k", "ibcast-5-ary-seg64k", "ibcast-5-ary-seg128k",
		"ibcast-binomial-seg32k", "ibcast-binomial-seg64k", "ibcast-binomial-seg128k",
	},
	"ibcast-scalable": {
		"ibcast-linear-seg32k", "ibcast-linear-seg64k", "ibcast-linear-seg128k",
		"ibcast-binomial-seg32k", "ibcast-binomial-seg64k", "ibcast-binomial-seg128k",
		"ibcast-torus-seg32k", "ibcast-torus-seg64k", "ibcast-torus-seg128k",
	},
	"iallgather":          {"iallgather-ring", "iallgather-linear"},
	"iallgather-scalable": {"iallgather-ring", "iallgather-linear", "iallgather-bruck"},
	"ireduce":             {"ireduce-binomial", "ireduce-chain"},
	"iallreduce":          {"iallreduce-recursive-doubling", "iallreduce-reduce-bcast"},
	"ibarrier":            {"ibarrier-dissemination", "ibarrier-tree"},
	"neighborhood": {
		"aao-isendirecv-pack", "aao-isendirecv-ddt", "pairwise-isendirecv-pack",
		"pairwise-isendirecv-ddt", "pairwise-sendrecv-pack", "pairwise-sendrecv-ddt",
	},
}

// TestOpCatalogue: every op of the catalogue, extended with every mock it
// has, builds a valid function set on every rank of small communicators,
// under the names the drivers have always printed, and one run of every
// function completes. A set declares its functions' names before any schedule
// exists (schedFn), and a function whose schedule compiles to another name
// panics on its first Start: starting every function is what holds nbc's name
// helpers — the allreduce fallback among them — to its constructors.
func TestOpCatalogue(t *testing.T) {
	if got := OpNames(); len(got) != len(opFunctions) {
		t.Fatalf("catalogue lists %v, the test pins %d ops", got, len(opFunctions))
	}
	for _, name := range OpNames() {
		op := mustOp(t, name)
		sizes := []int{2, 3, 4, 5, 8, 16}
		if name == "neighborhood" {
			sizes = []int{9, 16} // square process grids only
		}
		if op.PerSize != (name == "iallreduce" || name == "neighborhood") {
			t.Errorf("%s: PerSize = %v", name, op.PerSize)
		}
		var mocks []string
		for _, mock := range MockNames() {
			if def, _ := MockByName(mock); def.Op == name {
				mocks = append(mocks, mock)
			}
		}
		for _, np := range sizes {
			want := opFunctions[name]
			if name == "iallreduce" && np&(np-1) != 0 {
				want = want[1:]
			}
			want = append(want[:len(want):len(want)], mocks...)
			onEveryRank(t, np, func(c *mpi.Comm) {
				fs, err := op.Set(c, 4096, mocks)
				if err == nil {
					err = fs.Validate()
				}
				if err != nil {
					t.Errorf("%s on %d ranks: %v", name, np, err)
					return
				}
				if got := fs.FunctionNames(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %d ranks: functions %v, want %v", name, np, got, want)
				}
				for _, fn := range fs.Fns {
					if h := fn.Start(); h != nil {
						h.Wait()
					}
				}
			})
		}
	}
	if _, err := OpByName("igather"); err == nil || !strings.Contains(err.Error(), "ialltoall, ialltoall-ext") {
		t.Errorf("unknown op error %v does not list the catalogue", err)
	}
}

// TestMocksAttachToTheirOp: every catalogue mock extends exactly the one op it
// names — appended last, under its own name, as an uncharacterized function —
// and every other op refuses it; MockSet wraps it alone.
func TestMocksAttachToTheirOp(t *testing.T) {
	for _, mock := range MockNames() {
		def, ok := MockByName(mock)
		if !ok || def.Name != mock {
			t.Fatalf("MockByName(%q) = %+v, %v", mock, def, ok)
		}
		for _, name := range OpNames() {
			op := mustOp(t, name)
			np := 4
			if name == "neighborhood" {
				np = 9
			}
			onEveryRank(t, np, func(c *mpi.Comm) {
				fs, err := op.Set(c, 4096, []string{mock})
				if name != def.Op {
					if err == nil {
						t.Errorf("%s accepted %s, a mock for %s", name, mock, def.Op)
					}
					return
				}
				if err == nil {
					err = fs.Validate()
				}
				if err != nil {
					t.Errorf("%s + %s: %v", name, mock, err)
					return
				}
				last := fs.Fns[len(fs.Fns)-1]
				if last.Name != mock || !IsMockFn(last) || len(fs.Fns) != len(opFunctions[name])+1 {
					t.Errorf("%s + %s: functions %v", name, mock, fs.FunctionNames())
				}
				alone, err := MockSet(c, mock, 4096)
				if err != nil || alone.Validate() != nil || len(alone.Fns) != 1 || alone.Fns[0].Name != mock {
					t.Errorf("MockSet(%s) = %+v, %v", mock, alone, err)
				}
			})
		}
	}
}

// allocated returns the bytes f allocates, read from a heap profile that
// samples every allocation with its call stack: only allocations made
// beneath this function's frame count, so whatever other goroutines allocate
// meanwhile does not. f must not park (a rank's coroutine runs it through).
func allocated(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocatedBeneath()
	f()
	return allocatedBeneath() - before
}

// allocatedBeneath sums the bytes the heap profile attributes to call stacks
// through allocated but not through itself, after two collections have
// published every allocation made so far.
func allocatedBeneath() int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var sum int64
	for _, rec := range recs[:n] {
		for frames := runtime.CallersFrames(rec.Stack()); ; { // innermost first
			fr, more := frames.Next()
			if fr.Function == "nbctune/internal/core.allocated" {
				sum += rec.AllocBytes
			}
			if !more || fr.Function == "nbctune/internal/core.allocated" || fr.Function == "nbctune/internal/core.allocatedBeneath" {
				break
			}
		}
	}
	return sum
}

// TestSetsCompileOnFirstStart: a function compiles its schedule when it is
// first started and never again, and building a set compiles nothing — the
// paper's 21-function Ibcast set at 16 ranks / 2 MiB fits a per-rank budget a
// tenth of what compiling its schedules allocates on the rank that needs
// least.
func TestSetsCompileOnFirstStart(t *testing.T) {
	const np, msg, setBudget = 16, 2 << 20, 6048
	ibcast := mustOp(t, "ibcast")
	onEveryRank(t, np, func(c *mpi.Comm) {
		me := c.Rank()
		var fs *FunctionSet
		if got := allocated(func() { fs, _ = ibcast.Set(c, msg, nil) }); got > setBudget {
			t.Errorf("rank %d: building the ibcast set allocates %d bytes, budget %d", me, got, setBudget)
		}
		eager := allocated(func() {
			for _, f := range nbc.DefaultFanouts {
				for _, seg := range nbc.DefaultSegSizes {
					nbc.Ibcast(np, me, 0, mpi.Virtual(msg), f, seg)
				}
			}
		})
		if eager < 10*setBudget {
			t.Errorf("rank %d: compiling the set's schedules allocates %d bytes: a budget of %d proves nothing", me, eager, setBudget)
		}
		if me != 0 || fs == nil {
			return
		}
		compiles := 0
		fn := schedFn(c, "counted", func() *nbc.Schedule {
			compiles++
			return &nbc.Schedule{Name: "counted"}
		})
		if compiles != 0 {
			t.Errorf("schedFn compiled its schedule before any Start")
		}
		fn.Start().Wait()
		fn.Start().Wait()
		if compiles != 1 {
			t.Errorf("two Starts compiled the schedule %d times, want once", compiles)
		}
		defer func() {
			if recover() == nil {
				t.Errorf("a function declared under another name than its schedule's started")
			}
		}()
		schedFn(c, "declared", func() *nbc.Schedule { return &nbc.Schedule{Name: "compiled"} }).Start()
	})
}
