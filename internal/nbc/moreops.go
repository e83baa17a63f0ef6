package nbc

import (
	"fmt"
	"math/bits"

	"nbctune/internal/mpi"
)

// Additional non-blocking operations rounding out the library: Iallreduce,
// Igather, and Iscatter. They follow the same schedule discipline as the
// operations the paper evaluates and can be registered in ADCL function sets
// through core.NewFunctionSet.

// AllreduceAlgo names an Iallreduce algorithm.
type AllreduceAlgo int

const (
	// AllreduceRecursiveDoubling exchanges and combines at doubling
	// distances; log2(n) rounds on power-of-two communicators.
	AllreduceRecursiveDoubling AllreduceAlgo = iota
	// AllreduceReduceBcast reduces onto rank 0 and broadcasts back.
	AllreduceReduceBcast
)

func (a AllreduceAlgo) String() string {
	if a == AllreduceRecursiveDoubling {
		return "recursive-doubling"
	}
	return "reduce-bcast"
}

// on returns the algorithm Iallreduce runs on n ranks when asked for a:
// recursive doubling requires a power-of-two communicator size and falls back
// to reduce+bcast otherwise.
func (a AllreduceAlgo) on(n int) AllreduceAlgo {
	if a == AllreduceRecursiveDoubling && n&(n-1) != 0 {
		return AllreduceReduceBcast
	}
	return a
}

// IallreduceName names the schedule Iallreduce builds for algo on n ranks,
// fallback applied.
func IallreduceName(n int, algo AllreduceAlgo) string { return "iallreduce-" + algo.on(n).String() }

// Iallreduce builds this rank's schedule combining send.Len() bytes across
// all ranks with op; every rank receives the result in recv. Virtual
// buffers build a timing-only schedule.
func Iallreduce(n, me int, send, recv mpi.Buf, op mpi.ReduceOp, algo AllreduceAlgo) *Schedule {
	size := send.Len()
	name := IallreduceName(n, algo)
	switch algo.on(n) {
	case AllreduceRecursiveDoubling:
		phases := bits.Len(uint(n - 1))
		b := newBuilder(name, send, 3*phases+2, 2*phases+2)
		acc := staging(send, size)
		tmp := staging(send, size)
		aref, tref := b.buf(acc), b.buf(tmp)
		b.local(size, func() { mpi.Copy(acc, send) })
		b.end()
		phase := 0
		for dist := 1; dist < n; dist *= 2 {
			peer := me ^ dist
			b.add(postOne(OpRecv, phase, peer, tref, 0, size))
			b.add(postOne(OpSend, phase, peer, aref, 0, size))
			b.end()
			b.local(size, func() {
				if op != nil && acc.HasData() && tmp.HasData() {
					op(acc.Data(), tmp.Data())
				}
			})
			b.end()
			phase++
		}
		b.local(size, func() { mpi.Copy(recv, acc) })
		return b.done()
	case AllreduceReduceBcast:
		red := Ireduce(n, me, 0, send, recv, op, ReduceBinomial)
		bc := Ibcast(n, me, 0, recv, FanoutBinomial, 1<<30)
		b := newBuilder(name, send, opCount(red)+opCount(bc), len(red.Rounds)+len(bc.Rounds))
		b.splice(red, 0)
		b.splice(bc, 64) // the broadcast's tags past the reduce's
		return b.done()
	default:
		panic(fmt.Sprintf("nbc: unknown allreduce algorithm %d", int(algo)))
	}
}

// Igather builds this rank's schedule collecting send.Len() bytes from every
// rank at root: a binomial gather tree, log2(n) rounds at the root's
// children. recv (root only) holds n*send.Len() bytes; intermediate nodes
// allocate staging at build time so the schedule stays reusable.
func Igather(n, me, root int, send, recv mpi.Buf) *Schedule {
	bs := send.Len()
	phases := bits.Len(uint(n - 1))
	b := newBuilder("igather-binomial", send, phases+2, phases+2)
	vrank := (me - root + n) % n
	toWorld := func(v int) int { return (v + root) % n }

	// Staging buffer holds this rank's subtree blocks in vrank order
	// (binomial subtrees cover contiguous vrank ranges).
	mySub := subtreeOf(vrank, n)
	stage := staging(send, mySub*bs)
	sref := b.buf(stage)
	b.local(bs, func() { mpi.Copy(stage.Slice(0, bs), send) })
	b.end()
	// Receive children's subtrees (low bit upward), then send to parent.
	// Peers disambiguate the transfers, so no tag offsets are needed.
	low := vrank & (-vrank)
	if vrank == 0 {
		low = nextPow2(n)
	}
	off := 1 // blocks already staged (own block)
	for bit := 1; bit < low; bit *= 2 {
		child := vrank + bit
		if child >= n {
			break
		}
		cs := subtreeOf(child, n)
		b.add(postOne(OpRecv, 0, toWorld(child), sref, off*bs, cs*bs))
		b.end()
		off += cs
	}
	if vrank != 0 {
		parent := vrank & (vrank - 1)
		b.add(postOne(OpSend, 0, toWorld(parent), sref, 0, mySub*bs))
	} else {
		// Root: scatter the vrank-ordered staging into recv's rank order.
		b.local(n*bs, func() {
			for v := 0; v < n; v++ {
				r := (v + root) % n
				mpi.Copy(block(recv, r, bs), block(stage, v, bs))
			}
		})
	}
	return b.done()
}

// subtreeOf returns the binomial subtree size of virtual rank v in an
// n-rank tree. Exposed for Igather's staging layout; vrank-order staging
// works because binomial subtrees cover contiguous vrank ranges.
func subtreeOf(v, n int) int {
	low := v & (-v)
	if v == 0 {
		low = nextPow2(n)
	}
	end := v + low
	if end > n {
		end = n
	}
	return end - v
}

// Iscatter builds this rank's schedule distributing recv.Len()-byte blocks
// from root (binomial tree, mirroring Igather).
func Iscatter(n, me, root int, send, recv mpi.Buf) *Schedule {
	bs := recv.Len()
	phases := bits.Len(uint(n - 1))
	b := newBuilder("iscatter-binomial", recv, phases+2, phases+2)
	vrank := (me - root + n) % n
	toWorld := func(v int) int { return (v + root) % n }
	mySub := subtreeOf(vrank, n)
	stage := staging(recv, mySub*bs)
	sref := b.buf(stage)
	// Root packs send (rank order) into vrank order.
	if vrank == 0 {
		b.local(n*bs, func() {
			for v := 0; v < n; v++ {
				r := (v + root) % n
				mpi.Copy(block(stage, v, bs), block(send, r, bs))
			}
		})
	} else {
		parent := vrank & (vrank - 1)
		b.add(postOne(OpRecv, 0, toWorld(parent), sref, 0, mySub*bs))
	}
	b.end()
	// Forward children's chunks, far child first. Peers disambiguate the
	// transfers, so no tag offsets are needed.
	low := vrank & (-vrank)
	if vrank == 0 {
		low = nextPow2(n)
	}
	for bit := low / 2; bit >= 1; bit /= 2 {
		child := vrank + bit
		if child >= n {
			continue
		}
		cs := subtreeOf(child, n)
		coff := child - vrank
		b.add(postOne(OpSend, 0, toWorld(child), sref, coff*bs, cs*bs))
		b.end()
	}
	b.local(bs, func() { mpi.Copy(recv, stage.Slice(0, bs)) })
	return b.done()
}
