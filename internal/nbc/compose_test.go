package nbc

import (
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/platform"
)

// runWorld executes prog on an np-rank crill world and returns normally once
// every rank finished.
func runWorld(t *testing.T, np int, prog func(c *mpi.Comm)) {
	t.Helper()
	eng, w, err := platform.Crill().NewWorld(np, 7)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(prog)
	eng.Run()
}

func TestComposeRebasesTags(t *testing.T) {
	ab := newBuilder("a", mpi.Buf{}, 2, 1)
	one := ab.buf(mpi.Bytes(make([]byte, 1)))
	ab.add(postOne(OpSend, 3, 1, one, 0, 1))
	ab.add(postOne(OpRecv, 0, 1, one, 0, 1))
	a := ab.done()
	bb := newBuilder("b", mpi.Bytes(make([]byte, 2)), 2, 1)
	bb.local(2, func() {})
	bb.add(postOne(OpSend, 2, 1, bb.buf(mpi.Bytes(make([]byte, 2))), 0, 2))
	b := bb.done()
	c := Compose("ab", a, b)
	if got := c.Rounds[1][1].TagOff; got != 6 {
		t.Fatalf("second part's tag not rebased past the first: got %d, want 6", got)
	}
	// The second part's payload and work indexes follow the first part's.
	if got := c.Rounds[1][1].Ref; got != 1 || c.bufs[got].Len() != 2 {
		t.Fatalf("second part's payload not rebased: Ref %d over %d buffers", got, len(c.bufs))
	}
	if got := c.Rounds[1][0].Ref; got != 0 || len(c.work) != 1 {
		t.Fatalf("second part's work not carried over: Ref %d over %d functions", got, len(c.work))
	}
	// Originals must be untouched (schedules are immutable and reusable).
	if a.Rounds[0][0].TagOff != 3 || b.Rounds[0][1].TagOff != 2 || b.Rounds[0][1].Ref != 0 {
		t.Fatalf("Compose mutated its input schedules")
	}
}

// TestMockBcastConformance runs the scatter+allgather broadcast mock with
// real payloads and verifies every rank ends with the root's bytes — for a
// root-0 and a nonzero-root broadcast, and a size that does not divide by
// the rank count.
func TestMockBcastConformance(t *testing.T) {
	const np = 8
	for _, root := range []int{0, 3} {
		for _, size := range []int{np * 64, np*64 + 13} {
			bufs := make([]mpi.Buf, np)
			runWorld(t, np, func(c *mpi.Comm) {
				me := c.Rank()
				b := mpi.Bytes(make([]byte, size))
				bufs[me] = b
				if me == root {
					for k := range b.Data() {
						b.Data()[k] = byte(k*7 + 1)
					}
				}
				Run(c, MockBcastScatterAllgather(np, me, root, b))
			})
			for r := 0; r < np; r++ {
				for k, v := range bufs[r].Data() {
					if v != byte(k*7+1) {
						t.Fatalf("root=%d size=%d: rank %d byte %d = %d, want %d", root, size, r, k, v, byte(k*7+1))
					}
				}
			}
		}
	}
}

// TestMockAllgatherConformance runs the gather+bcast allgather mock with
// real payloads and verifies every rank assembles every rank's block.
func TestMockAllgatherConformance(t *testing.T) {
	const np, bs = 8, 32
	recvs := make([]mpi.Buf, np)
	runWorld(t, np, func(c *mpi.Comm) {
		me := c.Rank()
		send := mpi.Bytes(make([]byte, bs))
		for k := range send.Data() {
			send.Data()[k] = byte(me*31 + k)
		}
		recv := mpi.Bytes(make([]byte, np*bs))
		recvs[me] = recv
		Run(c, MockAllgatherGatherBcast(np, me, send, recv))
	})
	for r := 0; r < np; r++ {
		for src := 0; src < np; src++ {
			for k := 0; k < bs; k++ {
				if got := recvs[r].Data()[src*bs+k]; got != byte(src*31+k) {
					t.Fatalf("rank %d block %d byte %d = %d, want %d", r, src, k, got, byte(src*31+k))
				}
			}
		}
	}
}

// TestMockAlltoallSplitConformance runs the split-robustness alltoall mock
// with real payloads (odd block size, so the two halves are unequal) and
// verifies full alltoall semantics.
func TestMockAlltoallSplitConformance(t *testing.T) {
	const np, bs = 8, 33
	recvs := make([]mpi.Buf, np)
	runWorld(t, np, func(c *mpi.Comm) {
		me := c.Rank()
		send := mpi.Bytes(make([]byte, np*bs))
		for j := 0; j < np; j++ {
			for k := 0; k < bs; k++ {
				send.Data()[j*bs+k] = byte(me*131 + j*31 + k)
			}
		}
		recv := mpi.Bytes(make([]byte, np*bs))
		recvs[me] = recv
		Run(c, MockAlltoallSplit(np, me, send, recv))
	})
	for r := 0; r < np; r++ {
		for src := 0; src < np; src++ {
			for k := 0; k < bs; k++ {
				if got := recvs[r].Data()[src*bs+k]; got != byte(src*131+r*31+k) {
					t.Fatalf("rank %d from %d byte %d = %d, want %d", r, src, k, got, byte(src*131+r*31+k))
				}
			}
		}
	}
}
