package nbc

import (
	"fmt"

	"nbctune/internal/mpi"
)

// Mock composition: "mock" implementations of a collective assembled from
// the schedules of other collectives, in the sense of Hunold's
// performance-guideline methodology — e.g. a broadcast must not lose to a
// scatter followed by an allgather of the scattered blocks. The guideline
// engine (internal/guideline) measures these mocks against the tuned
// function-set winners; a mock that wins is promoted into the function set
// itself (core mock registry), which is the violations→function-set
// feedback loop.

// Compose concatenates per-rank schedules into one sequential composed
// schedule: part i+1's rounds run strictly after part i's (the round
// barrier of the schedule engine provides the ordering). Tag offsets of
// later parts are rebased past the earlier parts' so concurrent receives
// across part boundaries cannot match the wrong send. Parts with one-sided
// windows are rejected — put completion counters are per window instance
// and do not survive concatenation.
func Compose(name string, parts ...*Schedule) *Schedule {
	ops, rounds := 0, 0
	for _, p := range parts {
		if p.Win != nil {
			panic(fmt.Sprintf("nbc: Compose(%s): part %s uses a one-sided window", name, p.Name))
		}
		ops, rounds = ops+opCount(p), rounds+len(p.Rounds)
	}
	b := newBuilder(name, mpi.Buf{}, ops, rounds)
	base := 0
	for _, p := range parts {
		base += b.splice(p, base) + 1
	}
	return b.done()
}

// opCount returns the entries of s.
func opCount(s *Schedule) int {
	n := 0
	for _, r := range s.Rounds {
		n += len(r)
	}
	return n
}

// mockBlock returns the padded per-rank block size for splitting a size-byte
// buffer across n ranks: ceil(size/n).
func mockBlock(size, n int) int {
	return (size + n - 1) / n
}

// MockBcastScatterAllgather builds the composed broadcast mock of Hunold's
// guideline "Bcast(n) ≼ Scatter(n/p) + Allgather(n/p)": the root's buffer
// is scattered in ceil(len/p)-byte blocks down a binomial tree, then a ring
// allgather reassembles it everywhere. Bandwidth-optimal for large
// messages (each byte crosses the root's link once), so a tuned Ibcast set
// that loses to it is mis-tuned or missing an algorithm. Semantically a
// broadcast: with real payloads every rank ends with the root's bytes (the
// conformance test pins this).
func MockBcastScatterAllgather(n, me, root int, buf mpi.Buf) *Schedule {
	const name = "mock-ibcast-scatter-allgather"
	size := buf.Len()
	if n == 1 {
		return &Schedule{Name: name}
	}
	bs := mockBlock(size, n)
	stage := staging(buf, n*bs) // padded rank-order staging, shared by both phases
	myblk := staging(buf, bs)

	pre := newBuilder("pack", buf, 1, 1)
	pre.local(size, func() {
		if me == root {
			mpi.Copy(stage.Slice(0, size), buf)
		}
	})
	sc := Iscatter(n, me, root, stage, myblk)
	ag := Iallgather(n, me, myblk, stage, AllgatherRing)
	post := newBuilder("unpack", buf, 1, 1)
	post.local(size, func() { mpi.Copy(buf, stage.Slice(0, size)) })
	return Compose(name, pre.done(), sc, ag, post.done())
}

// MockAllgatherGatherBcast builds the composed allgather mock of the
// guideline "Allgather ≼ Gather + Bcast": gather every rank's send block to
// rank 0 (binomial tree), then broadcast the assembled recv buffer
// (binomial, unsegmented). Two log(p)-round trees, so it beats the ring
// algorithm's p-1 latency-bound rounds for small blocks at scale.
// Semantically an allgather over the same send/recv buffers as
// nbc.Iallgather.
func MockAllgatherGatherBcast(n, me int, send, recv mpi.Buf) *Schedule {
	g := Igather(n, me, 0, send, recv)
	b := Ibcast(n, me, 0, recv, FanoutBinomial, 1<<30)
	return Compose("mock-iallgather-gather-bcast", g, b)
}

// MockAlltoallSplit builds the split-robustness mock for Ialltoall: the
// same pairwise exchange executed twice, each pass moving half of every
// rank-pair block. A collective must not be robustly slower than itself
// run in two halves ("split-robustness"); a violation means the tuned
// algorithm handles its message size worse than the half size, i.e. the
// table's size boundaries are wrong. send/recv describe n*blockSize bytes
// as in nbc.Ialltoall.
func MockAlltoallSplit(n, me int, send, recv mpi.Buf) *Schedule {
	bs := send.Len() / n
	half := bs / 2
	if half == 0 {
		half = bs // 1-byte blocks: both passes carry the full block
	}
	pass := func(off, l int, phase int) *Schedule {
		b := newBuilder(fmt.Sprintf("half%d", phase), send, 2*n-1, n)
		sref, rref := b.buf(send), b.buf(recv)
		b.local(l, func() {
			mpi.Copy(block(recv, me, bs).Slice(off, l), block(send, me, bs).Slice(off, l))
		})
		b.end()
		for step := 1; step < n; step++ {
			to := (me + step) % n
			from := (me - step + n) % n
			b.add(postOne(OpRecv, step, from, rref, from*bs+off, l))
			b.add(postOne(OpSend, step, to, sref, to*bs+off, l))
			b.end()
		}
		return b.done()
	}
	return Compose("mock-ialltoall-split2", pass(0, half, 0), pass(half, bs-half, 1))
}
