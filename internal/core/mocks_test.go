package core

import (
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/platform"
)

func mustOp(t *testing.T, name string) *Op {
	t.Helper()
	op, err := OpByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// buildIbcastWith compiles an Ibcast set on a small crill world, optionally
// extended with guideline mocks.
func buildIbcastWith(t *testing.T, mocks []string) *FunctionSet {
	t.Helper()
	const np = 4
	eng, w, err := platform.Crill().NewWorld(np, 11)
	if err != nil {
		t.Fatal(err)
	}
	var fs *FunctionSet
	var buildErr error
	w.Start(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			fs, buildErr = mustOp(t, "ibcast").Set(c, 4096, mocks)
		}
	})
	eng.Run()
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return fs
}

// TestValidateAllocatesNothing: every rank validates its set on every
// NewRequest, so a valid set costs no allocation, here the 21 functions of
// the ibcast set.
func TestValidateAllocatesNothing(t *testing.T) {
	fs := buildIbcastWith(t, nil)
	if len(fs.Fns) != 21 {
		t.Fatalf("ibcast set has %d functions, want 21", len(fs.Fns))
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = fs.Validate() }); allocs != 0 || err != nil {
		t.Errorf("Validate: %v allocations, error %v; want 0 and nil", allocs, err)
	}
}

func TestMockExtendedSetValidates(t *testing.T) {
	base := buildIbcastWith(t, nil)
	ext := buildIbcastWith(t, []string{MockIbcastScatterAllgather})
	if err := ext.Validate(); err != nil {
		t.Fatalf("mock-extended set invalid: %v", err)
	}
	if len(ext.Fns) != len(base.Fns)+1 {
		t.Fatalf("extended set has %d fns, want %d", len(ext.Fns), len(base.Fns)+1)
	}
	// Prefix is byte-identical to the pre-guideline set; the mock is last.
	for i, f := range base.Fns {
		if ext.Fns[i].Name != f.Name {
			t.Fatalf("fn %d renamed: %q vs %q", i, ext.Fns[i].Name, f.Name)
		}
	}
	last := ext.Fns[len(ext.Fns)-1]
	if last.Name != MockIbcastScatterAllgather || !IsMockFn(last) {
		t.Fatalf("last fn = %q (mock=%v), want the appended mock", last.Name, IsMockFn(last))
	}
	for _, f := range base.Fns {
		if IsMockFn(f) {
			t.Fatalf("real function %q misclassified as mock", f.Name)
		}
	}
}

func TestAppendMocksRejectsBadNames(t *testing.T) {
	op := mustOp(t, "ibcast")
	if err := op.CheckMocks([]string{"no-such-mock"}); err == nil {
		t.Fatal("unknown mock name accepted")
	}
	if err := op.CheckMocks([]string{MockIalltoallSplit}); err == nil {
		t.Fatal("mock for a different operation accepted")
	}
}

// extendFake appends a synthetic mock (sentinel attribute vector) to a fake
// set, mirroring what appendMocks does for catalog mocks.
func extendFake(fs *FunctionSet) int {
	attrs := make([]int, len(fs.AttrSet.Attrs))
	for i := range fs.AttrSet.Attrs {
		fs.AttrSet.Attrs[i].Values = append(fs.AttrSet.Attrs[i].Values, MockAttrValue)
		attrs[i] = MockAttrValue
	}
	fs.Fns = append(fs.Fns, &Function{Name: "mock", Attrs: attrs, Start: func() Started { return nil }})
	return len(fs.Fns) - 1
}

// TestAttrHeuristicCarriesMock: the attribute heuristic must neither slice
// on the sentinel value nor prune the uncharacterized mock; when the mock is
// genuinely fastest it must survive to the final comparison and win.
func TestAttrHeuristicCarriesMock(t *testing.T) {
	fs := fakeSet([]int{-1, 0, 1, 2, 3, 4, 5}, []int{32, 64, 128})
	mock := extendFake(fs)
	cost := func(fn int) float64 {
		if fn == mock {
			return 0.5
		}
		f := fs.Fns[fn]
		seg := map[int]float64{32: 2, 64: 1, 128: 3}[f.Attrs[1]]
		d := f.Attrs[0] - 3
		if d < 0 {
			d = -d
		}
		return 10 + float64(d)*10 + seg
	}
	w := drive(t, NewAttrHeuristic(fs, 4), cost, 10000)
	if w != mock {
		t.Fatalf("winner = %s, want the mock", fs.Fns[w].Name)
	}

	// And when the mock is slowest, the heuristic still finds the real
	// optimum (fanout=3, seg=64) — the exemption must not distort slicing.
	fs2 := fakeSet([]int{-1, 0, 1, 2, 3, 4, 5}, []int{32, 64, 128})
	mock2 := extendFake(fs2)
	cost2 := func(fn int) float64 {
		if fn == mock2 {
			return 1000
		}
		return cost(fn)
	}
	w2 := drive(t, NewAttrHeuristic(fs2, 4), cost2, 10000)
	if got := fs2.Fns[w2].Attrs; got[0] != 3 || got[1] != 64 {
		t.Fatalf("winner attrs = %v, want [3 64]", got)
	}
}

// TestFactorial2KCarriesMock: the 2^k corner screen must not treat the
// sentinel as a factor extreme, and the mock must ride into the survivor
// brute force.
func TestFactorial2KCarriesMock(t *testing.T) {
	fs := fakeSet([]int{-1, 0, 1, 2, 3, 4, 5}, []int{32, 64, 128})
	mock := extendFake(fs)
	cost := func(fn int) float64 {
		if fn == mock {
			return 0.5
		}
		f := fs.Fns[fn]
		seg := map[int]float64{32: 2, 64: 1, 128: 3}[f.Attrs[1]]
		d := f.Attrs[0] - 3
		if d < 0 {
			d = -d
		}
		return 10 + float64(d)*10 + seg
	}
	w := drive(t, NewFactorial2K(fs, 4), cost, 10000)
	if w != mock {
		t.Fatalf("winner = %s, want the mock", fs.Fns[w].Name)
	}
}
