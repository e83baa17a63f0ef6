package core

import (
	"fmt"
	"slices"
	"sync"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
)

// Built-in function sets: the paper's ADCL_Ibcast (21 implementations:
// 7 tree fan-outs x 3 segment sizes) and ADCL_Ialltoall (linear,
// dissemination, pairwise), plus the extended Ialltoall set that also
// contains the blocking MPI_Alltoall (paper §IV-B-f), and sets for the other
// converted operations. Each is one declaration; the op catalogue (ops.go)
// names it, sizes its buffers and appends guideline mocks, and bind is the
// one way to instantiate it. Binding a set compiles none of its schedules,
// and a declaration compiles each virtual schedule once per process and shape.

// setDecl is a built-in set's catalogue: its name, attribute set and
// functions, built once and shared, read-only, by every rank of every world
// and by the host (ADCL creates function and attribute sets once; bind gives
// each rank its own).
type setDecl struct {
	name  string
	attrs *AttributeSet
	fns   []fnDecl
	// hook readies a rank's binding for what needs its communicator, before
	// any function starts: ialltoall-prim's window, neighborhood's halo. A
	// host's binding, which has no communicator, runs none.
	hook func(b *binding) error
}

// fnDecl declares one function: its name, its attribute vector and how it
// starts — sched compiles a schedule of the same name, or run starts it
// directly (the blocking all-to-all, the halo exchanges).
type fnDecl struct {
	name  string
	attrs []int
	sched func(b *binding, attrs []int) *nbc.Schedule
	run   func(b *binding, attrs []int) Started
	// memo keeps the virtual schedules sched compiled, for every binding of
	// the process; nil where a schedule reads more than its shape (a window,
	// the comm's topology), where sched shares its schedules itself (the
	// dissemination barrier) and in a per-call declaration (mocks).
	memo *schedMemo
}

// schedMemo holds one function's virtual schedules by shape. A schedule is
// immutable — nbc.Start makes fresh execution state and composition copies
// entries — so every world, rank and speculative candidate of one shape
// starts the same one. The lock is there because worlds bind concurrently
// (sweep -jobs, speculation's candidate pool).
type schedMemo struct {
	mu     sync.Mutex
	scheds map[memoKey]*nbc.Schedule
}

// memoKey is all that a memoized schedule reads of its binding: the comm's
// size and the rank's place in it, the root and the buffer lengths.
type memoKey struct{ n, rank, root, send, recv int }

// compile compiles the function's schedule on b; a name that differs from
// the declared one panics.
func (d *fnDecl) compile(b *binding) *nbc.Schedule {
	s := d.sched(b, d.attrs)
	if s.Name != d.name {
		panic(fmt.Sprintf("adcl: function %q compiled to schedule %q", d.name, s.Name))
	}
	return s
}

// schedule returns the function's schedule on b: the memoized one of b's
// shape, compiled by the first binding of that shape in the process, or one
// of b's own where the declaration keeps no memo or b moves real bytes (a
// data-mode schedule's tables hold the world's buffers).
func (d *fnDecl) schedule(b *binding) *nbc.Schedule {
	if d.memo == nil || b.send.HasData() || b.recv.HasData() {
		return d.compile(b)
	}
	k := memoKey{b.c.Size(), b.c.Rank(), b.root, b.send.Len(), b.recv.Len()}
	m := d.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.scheds[k]
	if !ok {
		s = d.compile(b)
		if m.scheds == nil {
			m.scheds = make(map[memoKey]*nbc.Schedule)
		}
		m.scheds[k] = s
	}
	return s
}

// binding is one rank's instance of a catalogue: its FunctionSet and what the
// functions run over.
type binding struct {
	fs         FunctionSet
	c          *mpi.Comm
	send, recv mpi.Buf
	root       int
	win        *mpi.Win // ialltoall-prim only
	halo       *Halo    // neighborhood only
}

// slot is one function of a binding and the schedule its first Start took.
type slot struct {
	Function
	b     *binding
	decl  *fnDecl
	sched *nbc.Schedule
}

// bind instantiates d on c: one block each for the binding, its slots and the
// function pointers, and one start closure per function. A host binds with a
// nil c, for the set's shape: its functions must never start.
func bind(c *mpi.Comm, send, recv mpi.Buf, root int, d *setDecl) *binding {
	b := &binding{c: c, send: send, recv: recv, root: root}
	b.fs = FunctionSet{Name: d.name, AttrSet: d.attrs, Fns: make([]*Function, len(d.fns))}
	slots := make([]slot, len(d.fns))
	for i := range d.fns {
		s := &slots[i]
		s.Name, s.Attrs, s.b, s.decl = d.fns[i].name, d.fns[i].attrs, b, &d.fns[i]
		s.Start = s.start
		b.fs.Fns[i] = &s.Function
	}
	return b
}

// start runs the slot's function. A schedule is taken on the function's
// first start — most runs start one or a few of a set's functions, and a set
// built only for its names none — and restarted from then on (persistent
// request semantics).
func (s *slot) start() Started {
	if s.decl.run != nil {
		return s.decl.run(s.b, s.decl.attrs)
	}
	if s.sched == nil {
		s.sched = s.decl.schedule(s.b)
	}
	return nbc.Start(s.b.c, s.sched)
}

// algoDecl declares a set characterized by the single attribute "algorithm":
// one function per entry of algos, named by fnName and compiled by sched.
func algoDecl[A ~int](name string, algos []A, fnName func(A) string, sched func(*binding, A) *nbc.Schedule) *setDecl {
	vals := make([]int, len(algos))
	d := &setDecl{name: name, fns: make([]fnDecl, len(algos))}
	compile := func(b *binding, attrs []int) *nbc.Schedule { return sched(b, A(attrs[0])) }
	for i, a := range algos {
		vals[i] = int(a)
		d.fns[i] = fnDecl{name: fnName(a), attrs: []int{int(a)}, sched: compile, memo: &schedMemo{}}
	}
	d.attrs = &AttributeSet{Attrs: []Attribute{{Name: "algorithm", Values: vals}}}
	return d
}

// ibcastDecl declares an Ibcast set over the given tree fan-outs, each
// crossed with the paper's three segment sizes.
func ibcastDecl(name string, fanoutValues, fanouts []int) *setDecl {
	segs := append([]int(nil), nbc.DefaultSegSizes...)
	d := &setDecl{name: name, attrs: &AttributeSet{Attrs: []Attribute{{Name: "fanout", Values: fanoutValues}, {Name: "segsize", Values: segs}}}}
	for _, f := range fanouts {
		sched := func(b *binding, a []int) *nbc.Schedule {
			return nbc.Ibcast(b.c.Size(), b.c.Rank(), b.root, b.send, a[0], a[1])
		}
		if f == nbc.FanoutTorus {
			sched = func(b *binding, a []int) *nbc.Schedule { return nbc.IbcastTorus(b.c, b.root, b.send, a[1]) }
		}
		for _, s := range segs {
			fn := fnDecl{name: nbc.IbcastName(f, s), attrs: []int{f, s}, sched: sched}
			if f != nbc.FanoutTorus { // the torus tree reads the comm's placement
				fn.memo = &schedMemo{}
			}
			d.fns = append(d.fns, fn)
		}
	}
	return d
}

// Attribute value used for the blocking implementation in the extended
// Ialltoall function set.
const AlltoallBlocking = 3

// Primitive attribute values of the ialltoall-prim set.
const (
	PrimitiveP2P = 0 // Isend/Irecv
	PrimitivePut = 1 // one-sided Put
)

// Ibarrier algorithm attribute values.
const (
	BarrierDissemination = 0
	BarrierTree          = 1
)

func iallgatherSched(b *binding, a nbc.AllgatherAlgo) *nbc.Schedule {
	return nbc.Iallgather(b.c.Size(), b.c.Rank(), b.send, b.recv, a)
}

// iallreduceDecl declares an Iallreduce set over algos. Operations tuned
// through core carry no reduction: a schedule combines sizes only.
func iallreduceDecl(algos ...nbc.AllreduceAlgo) *setDecl {
	return algoDecl("iallreduce", algos, func(a nbc.AllreduceAlgo) string { return "iallreduce-" + a.String() }, func(b *binding, a nbc.AllreduceAlgo) *nbc.Schedule {
		return nbc.Iallreduce(b.c.Size(), b.c.Rank(), b.send, b.recv, nil, a)
	})
}

// The built-in catalogues.
var (
	ibcastSet    = ibcastDecl("ibcast", []int{nbc.FanoutBinomial, 0, 1, 2, 3, 4, 5}, nbc.DefaultFanouts)
	ialltoallSet = algoDecl("ialltoall", nbc.DefaultAlltoallAlgos, nbc.IalltoallName, func(b *binding, a nbc.AlltoallAlgo) *nbc.Schedule {
		return nbc.Ialltoall(b.c.Size(), b.c.Rank(), b.send, b.recv, a)
	})
	ialltoallExtSet = &setDecl{name: "ialltoall-ext",
		attrs: &AttributeSet{Attrs: []Attribute{{Name: "algorithm", Values: append(slices.Clip(ialltoallSet.attrs.Attrs[0].Values), AlltoallBlocking)}}},
		fns: append(slices.Clip(ialltoallSet.fns), fnDecl{name: "alltoall-blocking", attrs: []int{AlltoallBlocking}, run: func(b *binding, _ []int) Started {
			b.c.Alltoall(b.send, b.recv)
			return nil
		}})}
	// ialltoallPrimSet is the two-dimensional Ialltoall set the paper
	// proposes as an extension (§III-E): algorithm x data-transfer
	// primitive. The put-based variants deposit blocks directly into a
	// shared receive window; the dissemination algorithm has no put variant
	// (its store-and-forward staging defeats one-sided deposits), so the
	// attribute grid is intentionally incomplete — selection logics that
	// require full grids fall back to brute force.
	ialltoallPrimSet = func() *setDecl {
		d := &setDecl{name: "ialltoall-prim", attrs: &AttributeSet{Attrs: []Attribute{
			{Name: "algorithm", Values: []int{int(nbc.AlgoLinear), int(nbc.AlgoBruck), int(nbc.AlgoPairwise)}},
			{Name: "primitive", Values: []int{PrimitiveP2P, PrimitivePut}},
		}}}
		for _, f := range ialltoallSet.fns {
			d.fns = append(d.fns, fnDecl{name: f.name, attrs: []int{f.attrs[0], PrimitiveP2P}, sched: f.sched, memo: f.memo})
		}
		d.fns = append(d.fns,
			fnDecl{name: nbc.IalltoallPutName(nbc.AlgoLinear), attrs: []int{int(nbc.AlgoLinear), PrimitivePut}, sched: func(b *binding, _ []int) *nbc.Schedule {
				return nbc.IalltoallLinearPut(b.c.Size(), b.c.Rank(), b.send, b.recv, b.win)
			}},
			fnDecl{name: nbc.IalltoallPutName(nbc.AlgoPairwise), attrs: []int{int(nbc.AlgoPairwise), PrimitivePut}, sched: func(b *binding, _ []int) *nbc.Schedule {
				return nbc.IalltoallPairwisePut(b.c.Size(), b.c.Rank(), b.send, b.recv, b.win)
			}})
		// The window is created with the set, not with the first put
		// schedule: creation is collective, and ranks start different
		// functions.
		d.hook = func(b *binding) error {
			b.win = nbc.IalltoallWindows(b.c, b.recv)
			return nil
		}
		return d
	}()
	iallgatherSet = algoDecl("iallgather", []nbc.AllgatherAlgo{nbc.AllgatherRing, nbc.AllgatherLinear}, nbc.IallgatherName, iallgatherSched)
	ireduceSet    = algoDecl("ireduce", []nbc.ReduceAlgo{nbc.ReduceBinomial, nbc.ReduceChain}, nbc.IreduceName, func(b *binding, a nbc.ReduceAlgo) *nbc.Schedule {
		return nbc.Ireduce(b.c.Size(), b.c.Rank(), b.root, b.send, b.recv, nil, a)
	})
	// Off a power of two, recursive doubling compiles to reduce-bcast: the
	// set there holds that one function.
	iallreduceSet         = iallreduceDecl(nbc.AllreduceRecursiveDoubling, nbc.AllreduceReduceBcast)
	iallreduceFallbackSet = iallreduceDecl(nbc.AllreduceReduceBcast)
	// The scalable sets add the O(log n) and topology-aware algorithms
	// (nbc/scale.go) that the paper's ≤128-process sets lack, so the same
	// tuning machinery can select at 4K+ simulated ranks, where the winner
	// flips away from the small-scale choice (EXPERIMENTS.md E15).
	ibcastScalableSet     = ibcastDecl("ibcast-scalable", []int{0, nbc.FanoutBinomial, nbc.FanoutTorus}, []int{0, nbc.FanoutBinomial, nbc.FanoutTorus})
	iallgatherScalableSet = algoDecl("iallgather-scalable", []nbc.AllgatherAlgo{nbc.AllgatherRing, nbc.AllgatherLinear, nbc.AllgatherBruck}, nbc.IallgatherName, iallgatherSched)
	ibarrierSet           = &setDecl{name: "ibarrier", attrs: &AttributeSet{Attrs: []Attribute{{Name: "algorithm", Values: []int{BarrierDissemination, BarrierTree}}}}, fns: []fnDecl{
		{name: nbc.IbarrierName, attrs: []int{BarrierDissemination}, sched: func(b *binding, _ []int) *nbc.Schedule { return nbc.Ibarrier(b.c.Size(), b.c.Rank()) }},
		{name: nbc.IbarrierTreeName, attrs: []int{BarrierTree}, sched: func(b *binding, _ []int) *nbc.Schedule { return nbc.IbarrierTree(b.c.Size(), b.c.Rank()) }, memo: &schedMemo{}},
	}}
)

// IbcastSet builds the paper's default Ibcast function set over buf
// (virtual or real) from root on comm.
func IbcastSet(c *mpi.Comm, root int, buf mpi.Buf) *FunctionSet {
	return &bind(c, buf, buf, root, ibcastSet).fs
}

// IalltoallSet builds the paper's Ialltoall function set exchanging
// send.Len()/Size() bytes per rank pair. With includeBlocking the set also contains
// the blocking MPI_Alltoall as a function whose wait pointer is nil — the
// modified function set of §IV-B-f that lets ADCL decide at runtime whether
// a code region benefits from a non-blocking operation at all.
func IalltoallSet(c *mpi.Comm, send, recv mpi.Buf, includeBlocking bool) *FunctionSet {
	d := ialltoallSet
	if includeBlocking {
		d = ialltoallExtSet
	}
	return &bind(c, send, recv, 0, d).fs
}

// CustomFunction registers a user-supplied implementation, the low-level
// ADCL interface that lets applications auto-tune their own communication
// patterns with ADCL's selection logic and statistics.
func CustomFunction(name string, attrs []int, start func() Started) *Function {
	return &Function{Name: name, Attrs: attrs, Start: start}
}

// NewFunctionSet assembles a function set from user functions (low-level
// API).
func NewFunctionSet(name string, attrSet *AttributeSet, fns ...*Function) (*FunctionSet, error) {
	fs := &FunctionSet{Name: name, AttrSet: attrSet, Fns: fns}
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	return fs, nil
}
