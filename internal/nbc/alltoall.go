package nbc

import (
	"fmt"
	"math/bits"

	"nbctune/internal/mpi"
)

// All-to-all schedules. The paper's Ialltoall function set contains three
// algorithms: linear (everything posted in a single round), dissemination
// (Bruck: log2(N) store-and-forward rounds with packed blocks), and pairwise
// exchange (N-1 structured rounds). Their very different round counts and
// message shapes are what creates the crossovers of Figs 3-5 and 7.

// AlltoallAlgo names an Ialltoall algorithm.
type AlltoallAlgo int

const (
	AlgoLinear AlltoallAlgo = iota
	AlgoBruck
	AlgoPairwise
)

func (a AlltoallAlgo) String() string {
	switch a {
	case AlgoLinear:
		return "linear"
	case AlgoBruck:
		return "dissemination"
	case AlgoPairwise:
		return "pairwise"
	default:
		return fmt.Sprintf("algo(%d)", int(a))
	}
}

// IalltoallName names an algorithm's Ialltoall schedule.
func IalltoallName(a AlltoallAlgo) string { return "ialltoall-" + a.String() }

// DefaultAlltoallAlgos lists the paper's three Ialltoall implementations.
var DefaultAlltoallAlgos = []AlltoallAlgo{AlgoLinear, AlgoBruck, AlgoPairwise}

// Ialltoall builds this rank's schedule for a non-blocking all-to-all where
// each pair of ranks exchanges send.Len()/n bytes. send/recv describe
// n*blockSize bytes each; virtual buffers simulate timing only.
func Ialltoall(n, me int, send, recv mpi.Buf, algo AlltoallAlgo) *Schedule {
	blockSize := send.Len() / n
	switch algo {
	case AlgoLinear:
		return ialltoallLinear(n, me, send, recv, blockSize)
	case AlgoBruck:
		return ialltoallBruck(n, me, send, recv, blockSize)
	case AlgoPairwise:
		return ialltoallPairwise(n, me, send, recv, blockSize)
	default:
		panic(fmt.Sprintf("nbc: unknown alltoall algorithm %d", int(algo)))
	}
}

func block(b mpi.Buf, i, bs int) mpi.Buf { return b.Slice(i*bs, bs) }

// selfCopy adds the local entry that copies this rank's own bs-byte block
// from send to recv.
func (b *builder) selfCopy(send, recv mpi.Buf, me, bs int) {
	b.local(bs, func() { mpi.Copy(block(recv, me, bs), block(send, me, bs)) })
}

// staging allocates an n-byte build-time scratch buffer matching like's
// payload mode: real bytes when like carries data, virtual otherwise.
func staging(like mpi.Buf, n int) mpi.Buf {
	if like.HasData() {
		return mpi.Bytes(make([]byte, n))
	}
	return mpi.Virtual(n)
}

// ialltoallLinear posts all receives and sends in one round: a run of
// receives from me+1, me+2, … and a run of sends to me-1, me-2, …, each into
// or out of its peer's block. It needs only a single progress call to be
// fully in flight, but exposes maximal concurrency to the network (incast on
// TCP).
func ialltoallLinear(n, me int, send, recv mpi.Buf, bs int) *Schedule {
	b := newBuilder(IalltoallName(AlgoLinear), send, 3, 1)
	sref, rref := b.buf(send), b.buf(recv)
	b.selfCopy(send, recv, me, bs)
	if n > 1 {
		b.add(postRun(OpRecv, 0, (me+1)%n, 1, n-1, rref, 0, bs))
		b.add(postRun(OpSend, 0, (me-1+n)%n, n-1, n-1, sref, 0, bs))
	}
	return b.done()
}

// ialltoallPairwise exchanges with partner (me+step) / (me-step) in N-1
// rounds. Structured and contention-free, but each round gates on a
// progress call.
func ialltoallPairwise(n, me int, send, recv mpi.Buf, bs int) *Schedule {
	b := newBuilder(IalltoallName(AlgoPairwise), send, 2*n-1, n)
	sref, rref := b.buf(send), b.buf(recv)
	b.selfCopy(send, recv, me, bs)
	b.end()
	for step := 1; step < n; step++ {
		to := (me + step) % n
		from := (me - step + n) % n
		b.add(postOne(OpRecv, step, from, rref, from*bs, bs))
		b.add(postOne(OpSend, step, to, sref, to*bs, bs))
		b.end()
	}
	return b.done()
}

// ialltoallBruck is the dissemination algorithm: ceil(log2 n) phases, each
// sending the aggregated blocks whose index has the phase bit set to rank
// (me+pow) and receiving from (me-pow). It sends the fewest messages
// (log2 n) but ~n/2*log2(n) blocks of data in total, plus pack/unpack
// copies, so it wins for small blocks and loses for large ones.
func ialltoallBruck(n, me int, send, recv mpi.Buf, bs int) *Schedule {
	phases := bits.Len(uint(n - 1)) // pow = 1, 2, 4, ... below n
	b := newBuilder(IalltoallName(AlgoBruck), send, 2+4*phases, 2+2*phases)

	// Working buffer in "rotated" order: tmp[i] = block destined for rank
	// (me+i)%n. Staging buffers per phase are allocated at build time so a
	// persistent request reuses them.
	tmp := staging(send, n*bs)

	// Round 0: local rotation.
	b.local(n*bs, func() {
		for i := 0; i < n; i++ {
			mpi.Copy(block(tmp, i, bs), block(send, (me+i)%n, bs))
		}
	})
	b.end()

	phase := 0
	for pow := 1; pow < n; pow *= 2 {
		var idxs []int
		for i := 1; i < n; i++ {
			if i&pow != 0 {
				idxs = append(idxs, i)
			}
		}
		cnt := len(idxs)
		sbuf := staging(send, cnt*bs)
		rbuf := staging(send, cnt*bs)
		to := (me + pow) % n
		from := (me - pow + n) % n

		// Pack + exchange in one round.
		b.local(cnt*bs, func() {
			for j, i := range idxs {
				mpi.Copy(block(sbuf, j, bs), block(tmp, i, bs))
			}
		})
		b.add(postOne(OpRecv, phase, from, b.buf(rbuf), 0, cnt*bs))
		b.add(postOne(OpSend, phase, to, b.buf(sbuf), 0, cnt*bs))
		b.end()
		// Unpack in the next round (after the receive completed).
		b.local(cnt*bs, func() {
			for j, i := range idxs {
				mpi.Copy(block(tmp, i, bs), block(rbuf, j, bs))
			}
		})
		b.end()
		phase++
	}

	// Final inverse rotation: recv[(me-i+n)%n] = tmp[i].
	b.local(n*bs, func() {
		for i := 0; i < n; i++ {
			mpi.Copy(block(recv, (me-i+n)%n, bs), block(tmp, i, bs))
		}
	})
	return b.done()
}
