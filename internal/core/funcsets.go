package core

import (
	"fmt"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
)

// Built-in function sets: the paper's ADCL_Ibcast (21 implementations:
// 7 tree fan-outs x 3 segment sizes) and ADCL_Ialltoall (linear,
// dissemination, pairwise), plus the extended Ialltoall set that also
// contains the blocking MPI_Alltoall (paper §IV-B-f), and sets for the other
// converted operations. The op catalogue (ops.go) names each of them, sizes
// its buffers and appends guideline mocks; the constructors here only say
// which schedules make up a set. Building a set compiles none of them.

// schedFn is the function of a set that runs the schedule build compiles,
// declared under the name nbc gives that schedule. The schedule is compiled
// when the function is first started — most runs start one or a few of a
// set's functions, and a set built only for its names none — and restarted
// per execution from then on (persistent request semantics).
func schedFn(c *mpi.Comm, name string, build func() *nbc.Schedule, attrs ...int) *Function {
	var s *nbc.Schedule
	return &Function{Name: name, Attrs: attrs, Start: func() Started {
		if s == nil {
			if s = build(); s.Name != name {
				panic(fmt.Sprintf("adcl: function %q compiled to schedule %q", name, s.Name))
			}
		}
		return nbc.Start(c, s)
	}}
}

// algoSet builds a set characterized by the single attribute "algorithm":
// one function per entry of algos, named by fnName and compiled by sched.
func algoSet[A ~int](c *mpi.Comm, name string, algos []A, fnName func(A) string, sched func(A) *nbc.Schedule) *FunctionSet {
	vals := make([]int, len(algos))
	fs := &FunctionSet{Name: name, Fns: make([]*Function, len(algos))}
	for i, a := range algos {
		vals[i] = int(a)
		fs.Fns[i] = schedFn(c, fnName(a), func() *nbc.Schedule { return sched(a) }, int(a))
	}
	fs.AttrSet = &AttributeSet{Attrs: []Attribute{{Name: "algorithm", Values: vals}}}
	return fs
}

// IbcastSet builds the paper's default Ibcast function set over buf
// (virtual or real) from root on comm.
func IbcastSet(c *mpi.Comm, root int, buf mpi.Buf) *FunctionSet {
	n, me := c.Size(), c.Rank()
	segs := nbc.DefaultSegSizes
	fs := &FunctionSet{
		Name: "ibcast",
		AttrSet: &AttributeSet{Attrs: []Attribute{
			{Name: "fanout", Values: []int{nbc.FanoutBinomial, 0, 1, 2, 3, 4, 5}},
			{Name: "segsize", Values: append([]int(nil), segs...)},
		}},
	}
	for _, f := range nbc.DefaultFanouts {
		for _, s := range segs {
			fs.Fns = append(fs.Fns, ibcastFn(c, n, me, root, buf, f, s))
		}
	}
	return fs
}

// ibcastFn is the Ibcast function of one tree shape and segment size.
func ibcastFn(c *mpi.Comm, n, me, root int, buf mpi.Buf, fanout, seg int) *Function {
	return schedFn(c, nbc.IbcastName(fanout, seg), func() *nbc.Schedule {
		return nbc.Ibcast(n, me, root, buf, fanout, seg)
	}, fanout, seg)
}

// Attribute value used for the blocking implementation in the extended
// Ialltoall function set.
const AlltoallBlocking = 3

// IalltoallSet builds the paper's Ialltoall function set exchanging
// send.Len()/Size() bytes per rank pair. With includeBlocking the set also contains
// the blocking MPI_Alltoall as a function whose wait pointer is nil — the
// modified function set of §IV-B-f that lets ADCL decide at runtime whether
// a code region benefits from a non-blocking operation at all.
func IalltoallSet(c *mpi.Comm, send, recv mpi.Buf, includeBlocking bool) *FunctionSet {
	n, me := c.Size(), c.Rank()
	fs := algoSet(c, "ialltoall", nbc.DefaultAlltoallAlgos, nbc.IalltoallName, func(a nbc.AlltoallAlgo) *nbc.Schedule {
		return nbc.Ialltoall(n, me, send, recv, a)
	})
	if includeBlocking {
		fs.Name = "ialltoall-ext"
		algo := &fs.AttrSet.Attrs[0]
		algo.Values = append(algo.Values, AlltoallBlocking)
		fs.Fns = append(fs.Fns, &Function{
			Name:  "alltoall-blocking",
			Attrs: []int{AlltoallBlocking},
			Start: func() Started {
				c.Alltoall(send, recv)
				return nil
			},
		})
	}
	return fs
}

// Primitive attribute values for IalltoallPrimitivesSet.
const (
	PrimitiveP2P = 0 // Isend/Irecv
	PrimitivePut = 1 // one-sided Put
)

// IalltoallPrimitivesSet builds the two-dimensional Ialltoall function set
// the paper proposes as an extension (§III-E): algorithm x data-transfer
// primitive. The put-based variants deposit blocks directly into a shared
// receive window; the dissemination algorithm has no put variant (its
// store-and-forward staging defeats one-sided deposits), so the attribute
// grid is intentionally incomplete — selection logics that require full
// grids fall back to brute force.
func IalltoallPrimitivesSet(c *mpi.Comm, send, recv mpi.Buf) *FunctionSet {
	n, me := c.Size(), c.Rank()
	fs := &FunctionSet{
		Name: "ialltoall-prim",
		AttrSet: &AttributeSet{Attrs: []Attribute{
			{Name: "algorithm", Values: []int{int(nbc.AlgoLinear), int(nbc.AlgoBruck), int(nbc.AlgoPairwise)}},
			{Name: "primitive", Values: []int{PrimitiveP2P, PrimitivePut}},
		}},
	}
	for _, a := range nbc.DefaultAlltoallAlgos {
		fs.Fns = append(fs.Fns, schedFn(c, nbc.IalltoallName(a), func() *nbc.Schedule {
			return nbc.Ialltoall(n, me, send, recv, a)
		}, int(a), PrimitiveP2P))
	}
	// The window is created with the set, not with the first put schedule:
	// creation is collective, and ranks start different functions.
	win := nbc.IalltoallWindows(c, recv)
	fs.Fns = append(fs.Fns,
		schedFn(c, nbc.IalltoallPutName(nbc.AlgoLinear), func() *nbc.Schedule {
			return nbc.IalltoallLinearPut(n, me, send, recv, win)
		}, int(nbc.AlgoLinear), PrimitivePut),
		schedFn(c, nbc.IalltoallPutName(nbc.AlgoPairwise), func() *nbc.Schedule {
			return nbc.IalltoallPairwisePut(n, me, send, recv, win)
		}, int(nbc.AlgoPairwise), PrimitivePut),
	)
	return fs
}

// iallgatherSet builds a function set over the given Iallgather algorithms.
func iallgatherSet(c *mpi.Comm, name string, send, recv mpi.Buf, algos ...nbc.AllgatherAlgo) *FunctionSet {
	n, me := c.Size(), c.Rank()
	return algoSet(c, name, algos, nbc.IallgatherName, func(a nbc.AllgatherAlgo) *nbc.Schedule {
		return nbc.Iallgather(n, me, send, recv, a)
	})
}

// IallgatherSet builds a function set over the two Iallgather algorithms.
func IallgatherSet(c *mpi.Comm, send, recv mpi.Buf) *FunctionSet {
	return iallgatherSet(c, "iallgather", send, recv, nbc.AllgatherRing, nbc.AllgatherLinear)
}

// IreduceSet builds a function set over the Ireduce algorithms.
func IreduceSet(c *mpi.Comm, root int, send, recv mpi.Buf, op mpi.ReduceOp) *FunctionSet {
	n, me := c.Size(), c.Rank()
	return algoSet(c, "ireduce", []nbc.ReduceAlgo{nbc.ReduceBinomial, nbc.ReduceChain}, nbc.IreduceName, func(a nbc.ReduceAlgo) *nbc.Schedule {
		return nbc.Ireduce(n, me, root, send, recv, op, a)
	})
}

// IallreduceSet builds a function set over the Iallreduce algorithms.
func IallreduceSet(c *mpi.Comm, send, recv mpi.Buf, op mpi.ReduceOp) *FunctionSet {
	n, me := c.Size(), c.Rank()
	algos := []nbc.AllreduceAlgo{nbc.AllreduceRecursiveDoubling, nbc.AllreduceReduceBcast}
	fs := algoSet(c, "iallreduce", algos, func(a nbc.AllreduceAlgo) string { return nbc.IallreduceName(n, a) }, func(a nbc.AllreduceAlgo) *nbc.Schedule {
		return nbc.Iallreduce(n, me, send, recv, op, a)
	})
	// On non-power-of-two communicators both algorithms compile to
	// reduce-bcast; de-duplicate by name to keep the set valid.
	if fs.Fns[0].Name == fs.Fns[1].Name {
		fs.Fns = fs.Fns[1:]
		fs.AttrSet.Attrs[0].Values = fs.AttrSet.Attrs[0].Values[1:]
	}
	return fs
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
