package nbc

import (
	"fmt"

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

func selfCopyOp(send, recv mpi.Buf, me, bs int) Op {
	return Op{Kind: OpLocal, N: bs, Fn: func() {
		mpi.Copy(block(recv, me, bs), block(send, me, bs))
	}}
}

// staging allocates an n-byte build-time scratch buffer matching like's
// payload mode: real bytes when like carries data, virtual otherwise.
func staging(like mpi.Buf, n int) mpi.Buf {
	if like.HasData() {
		return mpi.Bytes(make([]byte, n))
	}
	return mpi.Virtual(n)
}

// ialltoallLinear posts all receives and sends in one round. It needs only a
// single progress call to be fully in flight, but exposes maximal
// concurrency to the network (incast on TCP).
func ialltoallLinear(n, me int, send, recv mpi.Buf, bs int) *Schedule {
	b := newRoundBuf(2*n-1, 1)
	b.add(selfCopyOp(send, recv, me, bs))
	for off := 1; off < n; off++ {
		peer := (me + off) % n
		b.add(Op{Kind: OpRecv, Peer: peer, Buf: block(recv, peer, bs)})
	}
	for off := 1; off < n; off++ {
		peer := (me - off + n) % n
		b.add(Op{Kind: OpSend, Peer: peer, Buf: block(send, peer, bs)})
	}
	b.end()
	return &Schedule{Name: IalltoallName(AlgoLinear), Rounds: b.rounds}
}

// ialltoallPairwise exchanges with partner (me+step) / (me-step) in N-1
// rounds. Structured and contention-free, but each round gates on a
// progress call.
func ialltoallPairwise(n, me int, send, recv mpi.Buf, bs int) *Schedule {
	b := newRoundBuf(2*n-1, n)
	b.add(selfCopyOp(send, recv, me, bs))
	b.end()
	for step := 1; step < n; step++ {
		to := (me + step) % n
		from := (me - step + n) % n
		b.add(Op{Kind: OpRecv, Peer: from, TagOff: tagOff(step), Buf: block(recv, from, bs)})
		b.add(Op{Kind: OpSend, Peer: to, TagOff: tagOff(step), Buf: block(send, to, bs)})
		b.end()
	}
	return &Schedule{Name: IalltoallName(AlgoPairwise), Rounds: b.rounds}
}

// ialltoallBruck is the dissemination algorithm: ceil(log2 n) phases, each
// sending the aggregated blocks whose index has the phase bit set to rank
// (me+pow) and receiving from (me-pow). It sends the fewest messages
// (log2 n) but ~n/2*log2(n) blocks of data in total, plus pack/unpack
// copies, so it wins for small blocks and loses for large ones.
func ialltoallBruck(n, me int, send, recv mpi.Buf, bs int) *Schedule {
	s := &Schedule{Name: IalltoallName(AlgoBruck)}

	// Working buffer in "rotated" order: tmp[i] = block destined for rank
	// (me+i)%n. Staging buffers per phase are allocated at build time so a
	// persistent request reuses them.
	tmp := staging(send, n*bs)

	// Round 0: local rotation.
	rot := Round{Op{Kind: OpLocal, N: n * bs, Fn: func() {
		for i := 0; i < n; i++ {
			mpi.Copy(block(tmp, i, bs), block(send, (me+i)%n, bs))
		}
	}}}
	s.Rounds = append(s.Rounds, rot)

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
		idxsCopy := append([]int(nil), idxs...)
		to := (me + pow) % n
		from := (me - pow + n) % n

		// Pack + exchange in one round.
		pack := Op{Kind: OpLocal, N: cnt * bs, Fn: func() {
			for j, i := range idxsCopy {
				mpi.Copy(block(sbuf, j, bs), block(tmp, i, bs))
			}
		}}
		s.Rounds = append(s.Rounds, Round{
			pack,
			{Kind: OpRecv, Peer: from, TagOff: tagOff(phase), Buf: rbuf},
			{Kind: OpSend, Peer: to, TagOff: tagOff(phase), Buf: sbuf},
		})
		// Unpack in the next round (after the receive completed).
		unpack := Op{Kind: OpLocal, N: cnt * bs, Fn: func() {
			for j, i := range idxsCopy {
				mpi.Copy(block(tmp, i, bs), block(rbuf, j, bs))
			}
		}}
		s.Rounds = append(s.Rounds, Round{unpack})
		phase++
	}

	// Final inverse rotation: recv[(me-i+n)%n] = tmp[i].
	fin := Round{Op{Kind: OpLocal, N: n * bs, Fn: func() {
		for i := 0; i < n; i++ {
			mpi.Copy(block(recv, (me-i+n)%n, bs), block(tmp, i, bs))
		}
	}}}
	s.Rounds = append(s.Rounds, fin)
	return s
}
