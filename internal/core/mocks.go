package core

import (
	"fmt"
	"slices"
	"sort"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
)

// Guideline-promoted mock implementations. The guideline engine
// (internal/guideline) checks the tuned function sets against composed
// "mock" algorithms — a broadcast built from scatter+allgather, a split
// alltoall, an allgather built from gather+bcast. When a guideline is
// violated (the tuned table robustly loses to the mock), the mock is
// promoted into the operation's function set so the ADCL selector can pick
// it on the next tuning round. This file is the registration seam: a
// catalog of named mock schedules, each tied to one operation of the op
// catalogue (ops.go), whose Build appends the named mocks.
//
// Mock functions carry the sentinel attribute vector (MockAttrValue in
// every dimension): they are deliberately *uncharacterized* — a composed
// algorithm has no tree fan-out or segment size — so the attribute-driven
// selectors exempt them from slicing and pruning and carry them into the
// final brute-force comparison (selector.go). Sets built without mocks are
// byte-identical to their pre-guideline shape.

// MockAttrValue is the attribute value marking a function as an
// uncharacterized guideline mock. It is outside every real attribute range
// (fan-outs, segment sizes, algorithm enums are all small).
const MockAttrValue = -1 << 20

// IsMockFn reports whether f is a guideline-promoted mock: a non-empty
// attribute vector holding MockAttrValue in every dimension.
func IsMockFn(f *Function) bool {
	if len(f.Attrs) == 0 {
		return false
	}
	for _, v := range f.Attrs {
		if v != MockAttrValue {
			return false
		}
	}
	return true
}

// MockDef describes one registrable mock implementation: the operation
// whose function set it extends, its unique name — also its schedule's — and
// the schedule that implements it over that operation's buffers. Which
// guideline promoted a mock is recorded where the promotion happens:
// guideline.Registration and the selection audit's mock event.
type MockDef struct {
	Op   string
	Name string

	sched func(*binding, []int) *nbc.Schedule
}

// Names of the catalog mocks, usable in bench.MicroSpec.Mocks and Op.Build.
const (
	MockIbcastScatterAllgather = "mock-ibcast-scatter-allgather"
	MockIallgatherGatherBcast  = "mock-iallgather-gather-bcast"
	MockIalltoallSplit         = "mock-ialltoall-split2"
)

// mockCatalog is the static vocabulary of composed mocks the guideline
// engine knows how to build, sorted by name.
var mockCatalog = []MockDef{
	{Op: "iallgather", Name: MockIallgatherGatherBcast,
		sched: func(b *binding, _ []int) *nbc.Schedule {
			return nbc.MockAllgatherGatherBcast(b.c.Size(), b.c.Rank(), b.send, b.recv)
		}},
	{Op: "ialltoall", Name: MockIalltoallSplit,
		sched: func(b *binding, _ []int) *nbc.Schedule {
			return nbc.MockAlltoallSplit(b.c.Size(), b.c.Rank(), b.send, b.recv)
		}},
	{Op: "ibcast", Name: MockIbcastScatterAllgather,
		sched: func(b *binding, _ []int) *nbc.Schedule {
			return nbc.MockBcastScatterAllgather(b.c.Size(), b.c.Rank(), b.root, b.send)
		}},
}

// MockByName returns the catalog entry for a mock name.
func MockByName(name string) (MockDef, bool) {
	for _, d := range mockCatalog {
		if d.Name == name {
			return d, true
		}
	}
	return MockDef{}, false
}

// MockNames returns the sorted names of every catalog mock.
func MockNames() []string {
	out := make([]string, len(mockCatalog))
	for i, d := range mockCatalog {
		out[i] = d.Name
	}
	return out
}

// CheckMocks vets a mock list against the operation: unknown names and
// mocks for a different operation are errors — a violated guideline must
// never silently fail to register its mock.
func (o *Op) CheckMocks(mocks []string) error {
	for _, name := range mocks {
		def, ok := MockByName(name)
		if !ok {
			return fmt.Errorf("adcl: unknown mock %q (have %v)", name, MockNames())
		}
		if def.Op != o.Name {
			return fmt.Errorf("adcl: mock %q extends %q sets, not %q", name, def.Op, o.Name)
		}
	}
	return nil
}

// appendMocks extends b's set with the named catalog mocks, bound like b:
// each attribute's value range gains the MockAttrValue sentinel and each mock
// joins with the all-sentinel attribute vector. Mock names are sorted so the
// extended set's function order is deterministic regardless of caller order.
// The attribute set extended is a copy: a built-in set shares its
// catalogue's.
func (o *Op) appendMocks(b *binding, mocks []string) (*FunctionSet, error) {
	fs := &b.fs
	if len(mocks) == 0 {
		return fs, nil
	}
	if err := o.CheckMocks(mocks); err != nil {
		return nil, err
	}
	sorted := append([]string(nil), mocks...)
	sort.Strings(sorted)
	var sentinels []int
	if fs.AttrSet != nil {
		ext := &AttributeSet{Attrs: make([]Attribute, len(fs.AttrSet.Attrs))}
		sentinels = make([]int, len(ext.Attrs))
		for i, a := range fs.AttrSet.Attrs {
			ext.Attrs[i] = Attribute{Name: a.Name, Values: append(slices.Clip(a.Values), MockAttrValue)}
			sentinels[i] = MockAttrValue
		}
		fs.AttrSet = ext
	}
	d := &setDecl{name: fs.Name}
	for _, name := range sorted {
		def, _ := MockByName(name)
		d.fns = append(d.fns, fnDecl{name: def.Name, attrs: sentinels, sched: def.sched})
	}
	fs.Fns = append(fs.Fns, bind(b.c, b.send, b.recv, b.root, d).fs.Fns...)
	return fs, nil
}

// MockSet wraps one catalog mock as a single-candidate, uncharacterized
// function set over length-only buffers sized like Op.Set sizes the mock's
// operation.
func MockSet(c *mpi.Comm, name string, msg int) (*FunctionSet, error) {
	def, ok := MockByName(name)
	if !ok {
		return nil, fmt.Errorf("adcl: unknown mock %q (have %v)", name, MockNames())
	}
	op, err := OpByName(def.Op)
	if err != nil {
		return nil, err
	}
	send, recv := op.Buffers(c.Size(), msg, mpi.Virtual)
	return &bind(c, send, recv, 0, &setDecl{name: name, fns: []fnDecl{{name: def.Name, sched: def.sched}}}).fs, nil
}
