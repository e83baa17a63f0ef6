package nbc

import "nbctune/internal/mpi"

// Put-based all-to-all schedules: the data-transfer-primitive attribute the
// paper proposes as a later extension of the Ialltoall function set
// ("a further distinction based on data transfer primitives (i.e. Put/Get
// vs Isend/Irecv) could be added later on", §III-E).
//
// Instead of matched sends and receives, each rank deposits its blocks
// directly into the peers' receive windows with one-sided puts; completion
// at the receiver is detected by counting landed puts (put-with-notify).
// On RDMA transports a put needs no CPU and no MPI instant at the target,
// so put-based algorithms keep overlapping even when the target makes few
// progress calls — at the price of the window setup.

// IalltoallWindows creates the per-rank receive window a put-based alltoall
// schedule deposits into. recv is the same receive buffer the schedule's
// p2p variants use (virtual or real); the window must be created
// collectively, once, and can then back any number of put-based schedules
// over that buffer.
func IalltoallWindows(c *mpi.Comm, recv mpi.Buf) *mpi.Win {
	return c.CreateWin(recv)
}

// IalltoallPutName names an algorithm's put-based Ialltoall schedule.
func IalltoallPutName(a AlltoallAlgo) string { return IalltoallName(a) + "-put" }

// IalltoallLinearPut builds the one-sided linear algorithm: one round that
// puts every block into the peers' windows, a run of puts to me+1, me+2, …,
// then a completion gate for the n-1 incoming blocks. Like its two-sided
// sibling it occupies a single schedule round, so a single progress call
// suffices to drive it — and on RDMA fabrics not even the targets' progress
// is needed for the data to flow.
func IalltoallLinearPut(n, me int, send, recv mpi.Buf, win *mpi.Win) *Schedule {
	blockSize := send.Len() / n
	b := newBuilder(IalltoallPutName(AlgoLinear), send, 3, 1)
	b.s.Win = win
	sref := b.buf(send)
	b.selfCopy(send, recv, me, blockSize)
	if n > 1 {
		put := postRun(OpPut, 0, (me+1)%n, 1, n-1, sref, 0, blockSize)
		put.N = i32(me * blockSize)
		b.add(put)
	}
	b.add(awaitPuts(n - 1))
	return b.done()
}

// IalltoallPairwisePut builds the one-sided pairwise algorithm: n-1
// structured rounds, each putting one block and gating on the cumulative
// number of arrived blocks. It trades the linear variant's burst for
// bounded per-round network pressure.
func IalltoallPairwisePut(n, me int, send, recv mpi.Buf, win *mpi.Win) *Schedule {
	blockSize := send.Len() / n
	b := newBuilder(IalltoallPutName(AlgoPairwise), send, 2*n-1, n)
	b.s.Win = win
	sref := b.buf(send)
	b.selfCopy(send, recv, me, blockSize)
	b.end()
	for step := 1; step < n; step++ {
		to := (me + step) % n
		put := postOne(OpPut, 0, to, sref, to*blockSize, blockSize)
		put.N = i32(me * blockSize)
		b.add(put)
		b.add(awaitPuts(step))
		b.end()
	}
	return b.done()
}
