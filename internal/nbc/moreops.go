package nbc

import (
	"fmt"

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
	s := &Schedule{Name: IallreduceName(n, algo)}
	switch algo.on(n) {
	case AllreduceRecursiveDoubling:
		acc := staging(send, size)
		tmp := staging(send, size)
		s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: size, Fn: func() {
			mpi.Copy(acc, send)
		}}})
		phase := 0
		for dist := 1; dist < n; dist *= 2 {
			peer := me ^ dist
			s.Rounds = append(s.Rounds, Round{
				{Kind: OpRecv, Peer: peer, TagOff: tagOff(phase), Buf: tmp},
				{Kind: OpSend, Peer: peer, TagOff: tagOff(phase), Buf: acc},
			})
			s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: size, Fn: func() {
				if op != nil && acc.HasData() && tmp.HasData() {
					op(acc.Data(), tmp.Data())
				}
			}}})
			phase++
		}
		s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: size, Fn: func() {
			mpi.Copy(recv, acc)
		}}})
		return s
	case AllreduceReduceBcast:
		red := Ireduce(n, me, 0, send, recv, op, ReduceBinomial)
		s.Rounds = append(s.Rounds, red.Rounds...)
		bc := Ibcast(n, me, 0, recv, FanoutBinomial, 1<<30)
		// Offset the broadcast's tags past the reduce's.
		base := 64
		for _, r := range bc.Rounds {
			nr := make(Round, len(r))
			for i, op := range r {
				op.TagOff = tagOff(int(op.TagOff) + base)
				nr[i] = op
			}
			s.Rounds = append(s.Rounds, nr)
		}
		return s
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
	s := &Schedule{Name: "igather-binomial"}
	vrank := (me - root + n) % n
	toWorld := func(v int) int { return (v + root) % n }

	// Staging buffer holds this rank's subtree blocks in vrank order
	// (binomial subtrees cover contiguous vrank ranges).
	mySub := subtreeOf(vrank, n)
	stage := staging(send, mySub*bs)
	s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: bs, Fn: func() {
		mpi.Copy(stage.Slice(0, bs), send)
	}}})
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
		s.Rounds = append(s.Rounds, Round{
			{Kind: OpRecv, Peer: toWorld(child), Buf: stage.Slice(off*bs, cs*bs)},
		})
		off += cs
	}
	if vrank != 0 {
		parent := vrank & (vrank - 1)
		s.Rounds = append(s.Rounds, Round{
			{Kind: OpSend, Peer: toWorld(parent), Buf: stage},
		})
	} else {
		// Root: scatter the vrank-ordered staging into recv's rank order.
		s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: n * bs, Fn: func() {
			for v := 0; v < n; v++ {
				r := (v + root) % n
				mpi.Copy(block(recv, r, bs), block(stage, v, bs))
			}
		}}})
	}
	return s
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
	s := &Schedule{Name: "iscatter-binomial"}
	vrank := (me - root + n) % n
	toWorld := func(v int) int { return (v + root) % n }
	mySub := subtreeOf(vrank, n)
	stage := staging(recv, mySub*bs)
	// Root packs send (rank order) into vrank order.
	if vrank == 0 {
		s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: n * bs, Fn: func() {
			for v := 0; v < n; v++ {
				r := (v + root) % n
				mpi.Copy(block(stage, v, bs), block(send, r, bs))
			}
		}}})
	} else {
		parent := vrank & (vrank - 1)
		s.Rounds = append(s.Rounds, Round{
			{Kind: OpRecv, Peer: toWorld(parent), Buf: stage},
		})
	}
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
		s.Rounds = append(s.Rounds, Round{
			{Kind: OpSend, Peer: toWorld(child), Buf: stage.Slice(coff*bs, cs*bs)},
		})
	}
	s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: bs, Fn: func() {
		mpi.Copy(recv, stage.Slice(0, bs))
	}}})
	return s
}
