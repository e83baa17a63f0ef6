package nbc

import (
	"fmt"
	"math/bits"

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

// Ibarrier builds a dissemination barrier schedule: ceil(log2 n) rounds of
// one-byte exchanges at doubling distances.
func Ibarrier(n, me int) *Schedule {
	phases := bits.Len(uint(n - 1)) // dist = 1, 2, 4, ... below n
	b := newRoundBuf(2*phases, phases)
	for phase, dist := 0, 1; dist < n; phase, dist = phase+1, dist*2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		b.add(Op{Kind: OpRecv, Peer: from, TagOff: tagOff(phase), Buf: mpi.Virtual(1)})
		b.add(Op{Kind: OpSend, Peer: to, TagOff: tagOff(phase), Buf: mpi.Virtual(1)})
		b.end()
	}
	return &Schedule{Name: IbarrierName, Rounds: b.rounds}
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
	bs := send.Len()
	s := &Schedule{Name: IallgatherName(algo)}
	self := Op{Kind: OpLocal, N: bs, Fn: func() {
		mpi.Copy(block(recv, me, bs), send)
	}}
	if n == 1 {
		s.Rounds = append(s.Rounds, Round{self})
		return s
	}
	switch algo {
	case AllgatherLinear:
		// One round: send own block to everyone, receive everyone's block.
		b := newRoundBuf(2*n-1, 1)
		b.add(self)
		for off := 1; off < n; off++ {
			peer := (me + off) % n
			b.add(Op{Kind: OpRecv, Peer: peer, Buf: block(recv, peer, bs)})
		}
		for off := 1; off < n; off++ {
			peer := (me - off + n) % n
			b.add(Op{Kind: OpSend, Peer: peer, Buf: block(recv, me, bs)})
		}
		b.end()
		s.Rounds = b.rounds
		// Note: sends reference recv[me], written by the self copy in the
		// same round; OpLocal entries run before any posting.
		return s
	case AllgatherRing:
		b := newRoundBuf(2*n-1, n)
		b.add(self)
		b.end()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		cur := me
		for step := 0; step < n-1; step++ {
			prev := (cur - 1 + n) % n
			b.add(Op{Kind: OpRecv, Peer: left, TagOff: tagOff(step), Buf: block(recv, prev, bs)})
			b.add(Op{Kind: OpSend, Peer: right, TagOff: tagOff(step), Buf: block(recv, cur, bs)})
			b.end()
			cur = prev
		}
		s.Rounds = b.rounds
		return s
	case AllgatherBruck:
		return IallgatherBruck(n, me, send, recv)
	default:
		panic(fmt.Sprintf("nbc: unknown allgather algorithm %d", int(algo)))
	}
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
	s := &Schedule{Name: IreduceName(algo)}
	acc := staging(send, size)
	tmp := staging(send, size)
	// Round 0 (local): refresh the accumulator from the send buffer so a
	// persistent request can re-execute the schedule.
	s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: size, Fn: func() {
		mpi.Copy(acc, send)
	}}})
	vrank := (me - root + n) % n
	toWorld := func(v int) int { return (v + root) % n }

	reduceOp := func(phase int) Op {
		return Op{Kind: OpLocal, N: size, Fn: func() {
			if op != nil && acc.HasData() && tmp.HasData() {
				op(acc.Data(), tmp.Data())
			}
		}, TagOff: tagOff(phase)}
	}

	switch algo {
	case ReduceBinomial:
		phase := 0
		for dist := 1; dist < n; dist *= 2 {
			if vrank&dist != 0 {
				s.Rounds = append(s.Rounds, Round{
					{Kind: OpSend, Peer: toWorld(vrank - dist), TagOff: tagOff(phase), Buf: acc},
				})
				break
			}
			if vrank+dist < n {
				s.Rounds = append(s.Rounds, Round{
					{Kind: OpRecv, Peer: toWorld(vrank + dist), TagOff: tagOff(phase), Buf: tmp},
				})
				s.Rounds = append(s.Rounds, Round{reduceOp(phase)})
			}
			phase++
		}
	case ReduceChain:
		// vrank n-1 starts; each rank receives the running partial from
		// vrank+1, reduces, and forwards to vrank-1.
		if vrank+1 < n {
			s.Rounds = append(s.Rounds, Round{
				{Kind: OpRecv, Peer: toWorld(vrank + 1), Buf: tmp},
			})
			s.Rounds = append(s.Rounds, Round{reduceOp(0)})
		}
		if vrank != 0 {
			s.Rounds = append(s.Rounds, Round{
				{Kind: OpSend, Peer: toWorld(vrank - 1), Buf: acc},
			})
		}
	default:
		panic(fmt.Sprintf("nbc: unknown reduce algorithm %d", int(algo)))
	}
	if vrank == 0 {
		s.Rounds = append(s.Rounds, Round{{Kind: OpLocal, N: size, Fn: func() {
			mpi.Copy(recv, acc)
		}}})
	}
	return s
}
