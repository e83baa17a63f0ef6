package nbc

import (
	"fmt"
	"math/bits"
	"sync"

	"nbctune/internal/mpi"
)

// The remaining operations the paper converted from Open MPI to LibNBC
// schedules: Iallgather, Ireduce, and (as the basic synchronization
// primitive) Ibarrier.

// Names of the two Ibarrier schedules (IbarrierTree is in scale.go).
const (
	IbarrierName     = "ibarrier-dissemination"
	IbarrierTreeName = "ibarrier-tree"
)

// Ibarrier returns the dissemination barrier of an n-rank comm: ⌈log₂ n⌉
// rounds of one-byte exchanges at doubling distances. Its entries are
// Relative, so the schedule is the same on every rank and depends on n only
// through its round count: every call with that count returns one shared,
// immutable schedule, built on first use, and builds nothing. me is not read.
func Ibarrier(n, me int) *Schedule {
	phases := 0
	if n > 1 {
		phases = bits.Len(uint(n - 1)) // dist = 1, 2, 4, ... below n
	}
	sb := &barriers[phases]
	sb.once.Do(func() { sb.s = dissemination(phases) })
	return sb.s
}

// sharedBarrier is the dissemination barrier of one round count, built once
// by whichever rank asks for it first.
type sharedBarrier struct {
	once sync.Once
	s    *Schedule
}

// barriers holds the shared barrier of every round count whose distances fit
// an entry's int32 peer: up to 31 rounds, 2^31 ranks, far above the 2^18 a
// match key can name. A larger n indexes past the table and panics.
var barriers [32]sharedBarrier

// dissemination builds a barrier of the given round count: in round p every
// rank receives from the rank 2^p below it and sends to the rank 2^p above.
func dissemination(phases int) *Schedule {
	b := newBuilder(IbarrierName, mpi.Buf{}, 2*phases, phases)
	one := b.buf(mpi.Virtual(1))
	for phase, dist := 0, 1; phase < phases; phase, dist = phase+1, dist*2 {
		from, to := postOne(OpRecv, phase, -dist, one, 0, 1), postOne(OpSend, phase, dist, one, 0, 1)
		from.kt |= relBit
		to.kt |= relBit
		b.add(from)
		b.add(to)
		b.end()
	}
	return b.done()
}

// AllgatherAlgo names an Iallgather algorithm.
type AllgatherAlgo int

const (
	AllgatherRing AllgatherAlgo = iota
	AllgatherLinear
	// AllgatherBruck is the O(log n) dissemination allgather (scale.go),
	// part of the scalable function set rather than the paper's default set.
	AllgatherBruck
)

func (a AllgatherAlgo) String() string {
	switch a {
	case AllgatherRing:
		return "ring"
	case AllgatherBruck:
		return "bruck"
	default:
		return "linear"
	}
}

// IallgatherName names an algorithm's Iallgather schedule.
func IallgatherName(a AllgatherAlgo) string { return "iallgather-" + a.String() }

// Iallgather builds this rank's schedule for gathering send.Len() bytes from
// every rank into recv (n*send.Len() bytes). send may alias recv's own
// block; virtual buffers simulate timing only.
func Iallgather(n, me int, send, recv mpi.Buf, algo AllgatherAlgo) *Schedule {
	if n > 1 && algo == AllgatherBruck {
		return IallgatherBruck(n, me, send, recv)
	}
	bs := send.Len()
	ops, rounds := 3, 1
	if algo == AllgatherRing {
		ops, rounds = 2*n-1, n
	}
	b := newBuilder(IallgatherName(algo), send, ops, rounds)
	rref := b.buf(recv)
	b.local(bs, func() { mpi.Copy(block(recv, me, bs), send) })
	if n == 1 {
		return b.done()
	}
	switch algo {
	case AllgatherLinear:
		// One round: a run of receives of everyone's block from me+1,
		// me+2, …, and a run of sends of the own block to me-1, me-2, ….
		// The sends carry recv[me], written by the self copy in the same
		// round; OpLocal entries run before any posting.
		b.add(postRun(OpRecv, 0, (me+1)%n, 1, n-1, rref, 0, bs))
		send := postRun(OpSend, 0, (me-1+n)%n, n-1, n-1, rref, me*bs, bs)
		send.kt |= sameBit // every post carries the own block
		b.add(send)
	case AllgatherRing:
		b.end()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		cur := me
		for step := 0; step < n-1; step++ {
			prev := (cur - 1 + n) % n
			b.add(postOne(OpRecv, step, left, rref, prev*bs, bs))
			b.add(postOne(OpSend, step, right, rref, cur*bs, bs))
			b.end()
			cur = prev
		}
	default:
		panic(fmt.Sprintf("nbc: unknown allgather algorithm %d", int(algo)))
	}
	return b.done()
}

// ReduceAlgo names an Ireduce algorithm.
type ReduceAlgo int

const (
	ReduceBinomial ReduceAlgo = iota
	ReduceChain
)

func (a ReduceAlgo) String() string {
	if a == ReduceBinomial {
		return "binomial"
	}
	return "chain"
}

// IreduceName names an algorithm's Ireduce schedule.
func IreduceName(a ReduceAlgo) string { return "ireduce-" + a.String() }

// Ireduce builds this rank's schedule reducing send.Len() bytes onto root
// with op. send must not be modified between executions; recv is only
// written at root. Virtual buffers give a timing-only schedule.
func Ireduce(n, me, root int, send, recv mpi.Buf, op mpi.ReduceOp, algo ReduceAlgo) *Schedule {
	size := send.Len()
	phases := bits.Len(uint(n - 1))
	b := newBuilder(IreduceName(algo), send, 2*phases+2, 2*phases+2)
	acc := staging(send, size)
	tmp := staging(send, size)
	aref, tref := b.buf(acc), b.buf(tmp)
	// Round 0 (local): refresh the accumulator from the send buffer so a
	// persistent request can re-execute the schedule.
	b.local(size, func() { mpi.Copy(acc, send) })
	b.end()
	vrank := (me - root + n) % n
	toWorld := func(v int) int { return (v + root) % n }

	reduce := func() {
		b.local(size, func() {
			if op != nil && acc.HasData() && tmp.HasData() {
				op(acc.Data(), tmp.Data())
			}
		})
		b.end()
	}

	switch algo {
	case ReduceBinomial:
		phase := 0
		for dist := 1; dist < n; dist *= 2 {
			if vrank&dist != 0 {
				b.add(postOne(OpSend, phase, toWorld(vrank-dist), aref, 0, size))
				b.end()
				break
			}
			if vrank+dist < n {
				b.add(postOne(OpRecv, phase, toWorld(vrank+dist), tref, 0, size))
				b.end()
				reduce()
			}
			phase++
		}
	case ReduceChain:
		// vrank n-1 starts; each rank receives the running partial from
		// vrank+1, reduces, and forwards to vrank-1.
		if vrank+1 < n {
			b.add(postOne(OpRecv, 0, toWorld(vrank+1), tref, 0, size))
			b.end()
			reduce()
		}
		if vrank != 0 {
			b.add(postOne(OpSend, 0, toWorld(vrank-1), aref, 0, size))
			b.end()
		}
	default:
		panic(fmt.Sprintf("nbc: unknown reduce algorithm %d", int(algo)))
	}
	if vrank == 0 {
		b.local(size, func() { mpi.Copy(recv, acc) })
	}
	return b.done()
}
