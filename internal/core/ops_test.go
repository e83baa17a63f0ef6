package core

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// opShapes pins every catalogue op's attribute set — each attribute's name
// and values, in declaration order — and the attribute vector of every
// function of opFunctions, index for index. The sets share these from one
// process-wide catalogue, so a write into it shows here.
var opShapes = map[string]struct {
	attrs []Attribute
	fns   [][]int
}{
	"ialltoall":      {[]Attribute{{"algorithm", []int{0, 1, 2}}}, [][]int{{0}, {1}, {2}}},
	"ialltoall-ext":  {[]Attribute{{"algorithm", []int{0, 1, 2, 3}}}, [][]int{{0}, {1}, {2}, {3}}},
	"ialltoall-prim": {[]Attribute{{"algorithm", []int{0, 1, 2}}, {"primitive", []int{0, 1}}}, [][]int{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {2, 1}}},
	"ibcast": {
		[]Attribute{{"fanout", []int{-1, 0, 1, 2, 3, 4, 5}}, {"segsize", []int{32768, 65536, 131072}}},
		[][]int{
			{0, 32768}, {0, 65536}, {0, 131072}, {1, 32768}, {1, 65536}, {1, 131072},
			{2, 32768}, {2, 65536}, {2, 131072}, {3, 32768}, {3, 65536}, {3, 131072},
			{4, 32768}, {4, 65536}, {4, 131072}, {5, 32768}, {5, 65536}, {5, 131072},
			{-1, 32768}, {-1, 65536}, {-1, 131072},
		},
	},
	"ibcast-scalable": {
		[]Attribute{{"fanout", []int{0, -1, -2}}, {"segsize", []int{32768, 65536, 131072}}},
		[][]int{
			{0, 32768}, {0, 65536}, {0, 131072}, {-1, 32768}, {-1, 65536}, {-1, 131072},
			{-2, 32768}, {-2, 65536}, {-2, 131072},
		},
	},
	"iallgather":          {[]Attribute{{"algorithm", []int{0, 1}}}, [][]int{{0}, {1}}},
	"iallgather-scalable": {[]Attribute{{"algorithm", []int{0, 1, 2}}}, [][]int{{0}, {1}, {2}}},
	"ireduce":             {[]Attribute{{"algorithm", []int{0, 1}}}, [][]int{{0}, {1}}},
	"iallreduce":          {[]Attribute{{"algorithm", []int{0, 1}}}, [][]int{{0}, {1}}},
	"ibarrier":            {[]Attribute{{"algorithm", []int{0, 1}}}, [][]int{{0}, {1}}},
	"neighborhood": {
		[]Attribute{{"order", []int{0, 1}}, {"primitive", []int{0, 1}}, {"handling", []int{0, 1}}},
		[][]int{{0, 0, 0}, {0, 0, 1}, {1, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1}},
	},
}

// opMocks lists the catalogue mocks that extend op name's sets.
func opMocks(name string) []string {
	var mocks []string
	for _, mock := range MockNames() {
		if def, _ := MockByName(mock); def.Op == name {
			mocks = append(mocks, mock)
		}
	}
	return mocks
}

// checkShape reports where fs, op name's set on np ranks extended with mocks,
// differs from opFunctions and opShapes: iallreduce off a power of two keeps
// its second function alone, and every mock adds the sentinel to each
// attribute's values and joins with the all-sentinel vector.
func checkShape(t *testing.T, fs *FunctionSet, name string, np int, mocks []string) {
	t.Helper()
	names, attrs, vecs := opFunctions[name], opShapes[name].attrs, opShapes[name].fns
	if name == "iallreduce" && np&(np-1) != 0 {
		names, vecs = names[1:], vecs[1:]
		attrs = []Attribute{{attrs[0].Name, attrs[0].Values[1:]}}
	}
	names = append(slices.Clip(names), mocks...)
	if len(mocks) > 0 {
		ext, sentinels := make([]Attribute, len(attrs)), make([]int, len(attrs))
		for i, a := range attrs {
			ext[i] = Attribute{a.Name, append(slices.Clip(a.Values), MockAttrValue)}
			sentinels[i] = MockAttrValue
		}
		attrs = ext
		for range mocks {
			vecs = append(slices.Clip(vecs), sentinels)
		}
	}
	gotVecs := make([][]int, len(fs.Fns))
	for i, f := range fs.Fns {
		gotVecs[i] = f.Attrs
	}
	if got := fs.FunctionNames(); !reflect.DeepEqual(got, names) {
		t.Errorf("%s on %d ranks: functions %v, want %v", name, np, got, names)
	}
	if fs.AttrSet == nil || !reflect.DeepEqual(fs.AttrSet.Attrs, attrs) {
		t.Errorf("%s on %d ranks: attributes %+v, want %+v", name, np, fs.AttrSet, attrs)
	}
	if !reflect.DeepEqual(gotVecs, vecs) {
		t.Errorf("%s on %d ranks: attribute vectors %v, want %v", name, np, gotVecs, vecs)
	}
}

// TestOpCatalogue: every op of the catalogue, extended with every mock it
// has, builds a valid function set on every rank of small communicators,
// under the names the drivers have always printed and the attribute shape
// opShapes pins, and one run of every function completes. The host shape
// (Op.Shape) of every op, size and mock list has the same names and
// attributes, with no world. A set declares its functions' names before any
// schedule exists (bind), and a function whose schedule compiles to another
// name panics on its first Start: starting every function is what holds
// nbc's name helpers — the allreduce fallback among them — to its
// constructors.
func TestOpCatalogue(t *testing.T) {
	if got := OpNames(); len(got) != len(opFunctions) || len(got) != len(opShapes) {
		t.Fatalf("catalogue lists %v, the test pins %d and %d ops", got, len(opFunctions), len(opShapes))
	}
	for _, name := range OpNames() {
		op := mustOp(t, name)
		sizes := []int{2, 3, 4, 5, 8, 16}
		if name == "neighborhood" {
			sizes = []int{9, 16} // square process grids only
		}
		mocks := opMocks(name)
		for _, np := range sizes {
			host, err := op.Shape(np, 4096, mocks)
			if err == nil {
				err = host.Validate()
			}
			if err != nil {
				t.Errorf("%s host shape on %d ranks: %v", name, np, err)
			} else {
				checkShape(t, host, name, np, mocks)
			}
			onEveryRank(t, np, func(c *mpi.Comm) {
				fs, err := op.Set(c, 4096, mocks)
				if err == nil {
					err = fs.Validate()
				}
				if err != nil {
					t.Errorf("%s on %d ranks: %v", name, np, err)
					return
				}
				checkShape(t, fs, name, np, mocks)
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

// TestSetCatalogueUnchanged: every rank's built-in set shares its catalogue's
// attribute values and function table, so extending one rank's set — with
// guideline mocks, or the all-to-all set with its blocking member — must
// extend a copy. Plain sets built afterwards on another rank, and meanwhile
// on another goroutine (a second world, as runner workers run them), still
// hold the literal tables, and so do the host shapes, every op with its
// mocks, that a third goroutine builds from the same declarations; under
// -race a write into the shared tables also shows as a race with those
// goroutines' reads.
func TestSetCatalogueUnchanged(t *testing.T) {
	const np = 2
	plain := func(c *mpi.Comm) {
		for _, name := range []string{"ibcast", "ialltoall"} {
			fs, err := mustOp(t, name).Set(c, 4096, nil)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			checkShape(t, fs, name, np, nil)
		}
	}
	_, other, err := platform.Crill().NewWorld(np, 5)
	if err != nil {
		t.Fatal(err)
	}
	other.Start(plain)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		other.Run()
	}()
	go func() {
		defer wg.Done()
		for _, op := range ops {
			hostNP := 4
			if op.Name == "neighborhood" {
				hostNP = 9
			}
			mocks := opMocks(op.Name)
			fs, err := op.Shape(hostNP, 4096, mocks)
			if err != nil {
				t.Errorf("%s host shape: %v", op.Name, err)
				continue
			}
			checkShape(t, fs, op.Name, hostNP, mocks)
		}
	}()
	onEveryRank(t, np, func(c *mpi.Comm) {
		if c.Rank() != 0 {
			plain(c)
			return
		}
		for _, name := range []string{"ibcast", "ialltoall-ext"} {
			mocks := opMocks(name)
			fs, err := mustOp(t, name).Set(c, 4096, mocks)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			checkShape(t, fs, name, np, mocks)
		}
	})
	wg.Wait()
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

// allocated returns the bytes and objects f allocates, read from a heap
// profile that samples every allocation with its call stack: only
// allocations made beneath this function's frame count, so whatever other
// goroutines allocate meanwhile does not. f must not park (a rank's coroutine
// runs it through).
func allocated(f func()) (bytes, objects int64) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	b0, o0 := allocatedBeneath()
	f()
	b1, o1 := allocatedBeneath()
	return b1 - b0, o1 - o0
}

// allocatedBeneath sums the bytes and objects the heap profile attributes to
// call stacks through allocated but not through itself, after two
// collections have published every allocation made so far.
func allocatedBeneath() (bytes, objects int64) {
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
	for _, rec := range recs[:n] {
		for frames := runtime.CallersFrames(rec.Stack()); ; { // innermost first
			fr, more := frames.Next()
			if fr.Function == "nbctune/internal/core.allocated" {
				bytes += rec.AllocBytes
				objects += rec.AllocObjects
			}
			if !more || fr.Function == "nbctune/internal/core.allocated" || fr.Function == "nbctune/internal/core.allocatedBeneath" {
				break
			}
		}
	}
	return bytes, objects
}

// TestSetsCompileOnFirstStart: a function compiles its schedule when it is
// first started and never again, and building a set compiles nothing — the
// paper's 21-function Ibcast set at 16 ranks / 2 MiB fits a per-rank budget
// of bytes and objects (bind: the set, its slots, its function pointers and
// one start closure per function; the catalogue is shared), and on every
// rank allocates a tenth or less of what compiling its schedules does.
func TestSetsCompileOnFirstStart(t *testing.T) {
	const np, msg, byteBudget, objectBudget = 16, 2 << 20, 2376, 26 // 2 160 B and 24 objects, +10 %
	ibcast := mustOp(t, "ibcast")
	onEveryRank(t, np, func(c *mpi.Comm) {
		me := c.Rank()
		var fs *FunctionSet
		built, objects := allocated(func() { fs, _ = ibcast.Set(c, msg, nil) })
		if built > byteBudget || objects > objectBudget {
			t.Errorf("rank %d: building the ibcast set allocates %d bytes in %d objects, budget %d bytes, %d objects", me, built, objects, byteBudget, objectBudget)
		} else if me == 0 {
			t.Logf("building the ibcast set allocates %d bytes in %d objects (budget %d, %d)", built, objects, byteBudget, objectBudget)
		}
		eager, _ := allocated(func() {
			for _, f := range nbc.DefaultFanouts {
				for _, seg := range nbc.DefaultSegSizes {
					nbc.Ibcast(np, me, 0, mpi.Virtual(msg), f, seg)
				}
			}
		})
		if eager < 10*built {
			t.Errorf("rank %d: compiling the set's schedules allocates %d bytes, building the set %d: not a tenth", me, eager, built)
		}
		if me != 0 || fs == nil {
			return
		}
		compiles, memos := 0, memoSize()
		probe := bind(c, mpi.Buf{}, mpi.Buf{}, 0, &setDecl{name: "probe", fns: []fnDecl{
			{name: "counted", sched: func(*binding, []int) *nbc.Schedule {
				compiles++
				return &nbc.Schedule{Name: "counted"}
			}},
			{name: "declared", sched: func(*binding, []int) *nbc.Schedule { return &nbc.Schedule{Name: "compiled"} }},
		}}).fs
		if compiles != 0 {
			t.Errorf("bind compiled a schedule before any Start")
		}
		probe.Fns[0].Start().Wait()
		probe.Fns[0].Start().Wait()
		if compiles != 1 {
			t.Errorf("two Starts compiled the schedule %d times, want once", compiles)
		}
		if n := memoSize(); n != memos {
			t.Errorf("a probe set took the memos from %d to %d schedules", memos, n)
		}
		defer func() {
			if recover() == nil {
				t.Errorf("a function declared under another name than its schedule's started")
			}
		}()
		probe.Fns[1].Start()
	})
}
