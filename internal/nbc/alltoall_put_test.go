package nbc

import (
	"fmt"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
)

func checkAlltoallPut(t *testing.T, n, bs int, pairwise bool) {
	t.Helper()
	results := make([][]byte, n)
	runProg(t, n, nil, func(c *mpi.Comm) {
		me := c.Rank()
		send := make([]byte, n*bs)
		for p := 0; p < n; p++ {
			for i := 0; i < bs; i++ {
				send[p*bs+i] = byte(me*37 + p*11 + i)
			}
		}
		recv := make([]byte, n*bs)
		win := IalltoallWindows(c, mpi.Bytes(recv))
		var sched *Schedule
		if pairwise {
			sched = IalltoallPairwisePut(n, me, mpi.Bytes(send), mpi.Bytes(recv), win)
		} else {
			sched = IalltoallLinearPut(n, me, mpi.Bytes(send), mpi.Bytes(recv), win)
		}
		Run(c, sched)
		results[me] = recv
	})
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			for i := 0; i < bs; i++ {
				want := byte(p*37 + r*11 + i)
				if results[r][p*bs+i] != want {
					t.Fatalf("pairwise=%v n=%d bs=%d: rank %d block %d byte %d = %d want %d",
						pairwise, n, bs, r, p, i, results[r][p*bs+i], want)
				}
			}
		}
	}
}

func TestIalltoallPutCorrectness(t *testing.T) {
	for _, pairwise := range []bool{false, true} {
		for _, n := range []int{2, 3, 5, 8} {
			for _, bs := range []int{64, 4096, 20 * 1024} {
				t.Run(fmt.Sprintf("pairwise=%v/n%d/bs%d", pairwise, n, bs), func(t *testing.T) {
					checkAlltoallPut(t, n, bs, pairwise)
				})
			}
		}
	}
}

func TestIalltoallPutOnTCP(t *testing.T) {
	// Host-attended transport: puts become visible only at target MPI
	// instants, but correctness must hold.
	results := make([][]byte, 4)
	runProg(t, 4, func(p *netmodel.Params) { p.RDMA = false }, func(c *mpi.Comm) {
		me := c.Rank()
		bs := 512
		send := make([]byte, 4*bs)
		for i := range send {
			send[i] = byte(me ^ i)
		}
		recv := make([]byte, 4*bs)
		win := IalltoallWindows(c, mpi.Bytes(recv))
		Run(c, IalltoallLinearPut(4, me, mpi.Bytes(send), mpi.Bytes(recv), win))
		results[me] = recv
	})
	for r := 0; r < 4; r++ {
		bs := 512
		for p := 0; p < 4; p++ {
			for i := 0; i < bs; i++ {
				want := byte(p ^ (r*bs + i))
				if results[r][p*bs+i] != want {
					t.Fatalf("rank %d block %d byte %d = %d want %d", r, p, i, results[r][p*bs+i], want)
				}
			}
		}
	}
}

func TestIalltoallPutPersistentReuse(t *testing.T) {
	// The same put schedule must execute repeatedly: the completion counter
	// baseline resets per Start.
	const n = 4
	const bs = 256
	ok := true
	runProg(t, n, nil, func(c *mpi.Comm) {
		me := c.Rank()
		send := make([]byte, n*bs)
		recv := make([]byte, n*bs)
		win := IalltoallWindows(c, mpi.Bytes(recv))
		sched := IalltoallLinearPut(n, me, mpi.Bytes(send), mpi.Bytes(recv), win)
		for it := 0; it < 3; it++ {
			for i := range send {
				send[i] = byte(me + it + i)
			}
			Run(c, sched)
			for p := 0; p < n; p++ {
				if recv[p*bs] != byte(p+it) {
					ok = false
				}
			}
		}
	})
	if !ok {
		t.Fatal("put schedule reuse produced wrong data")
	}
}

func TestIalltoallPutOverlapsWithoutTargetProgress(t *testing.T) {
	// The one-sided advantage: with rendezvous-sized blocks and NO progress
	// calls at the receivers, p2p linear cannot finish before the compute
	// phase ends, while put-based linear flows autonomously on RDMA.
	const n = 4
	const bs = 64 * 1024
	const compute = 0.2
	run := func(put bool) float64 {
		var senderDone float64
		runProg(t, n, nil, func(c *mpi.Comm) {
			me := c.Rank()
			var sched *Schedule
			if put {
				win := IalltoallWindows(c, mpi.Virtual(n*bs))
				sched = IalltoallLinearPut(n, me, mpi.Virtual(n*bs), mpi.Virtual(n*bs), win)
			} else {
				sched = Ialltoall(n, me, mpi.Virtual(n*bs), mpi.Virtual(n*bs), AlgoLinear)
			}
			h := Start(c, sched)
			c.Compute(compute) // zero progress calls
			h.Wait()
			if me == 0 && c.Now() > senderDone {
				senderDone = c.Now()
			}
		})
		return senderDone
	}
	p2p := run(false)
	put := run(true)
	if put >= p2p {
		t.Fatalf("put-based linear (%g) should beat p2p linear (%g) without target progress", put, p2p)
	}
	if put > compute*1.05 {
		t.Fatalf("put-based linear took %g, expected near-full overlap of %g", put, compute)
	}
}

func TestPutScheduleRoundCounts(t *testing.T) {
	runProg(t, 4, nil, func(c *mpi.Comm) {
		win := IalltoallWindows(c, mpi.Virtual(4*128))
		lin := IalltoallLinearPut(4, c.Rank(), mpi.Virtual(4*128), mpi.Virtual(4*128), win)
		pw := IalltoallPairwisePut(4, c.Rank(), mpi.Virtual(4*128), mpi.Virtual(4*128), win)
		if len(lin.Rounds) != 1 {
			t.Errorf("linear-put rounds = %d, want 1", len(lin.Rounds))
		}
		if len(pw.Rounds) != 4 {
			t.Errorf("pairwise-put rounds = %d, want 4", len(pw.Rounds))
		}
		// Consume the schedules so the window state stays consistent.
		Run(c, lin)
		Run(c, pw)
	})
}
