package mpi

import (
	"testing"

	"nbctune/internal/netmodel"
	"nbctune/internal/obs"
)

// runObserved is runProg with a recorder attached, which prog may read as it
// runs: a rank's spans are recorded as its clock advances.
func runObserved(t *testing.T, n int, mutate func(*netmodel.Params), prog func(c *Comm, rec *obs.Recorder)) {
	eng, w := testWorld(t, n, mutate)
	rec := obs.NewRecorder(n)
	w.Observe(rec)
	w.Start(func(c *Comm) { prog(c, rec) })
	eng.Run()
}

// mpiSeconds is the time the recorder has seen rank spend inside MPI.
func mpiSeconds(rec *obs.Recorder, rank int) float64 { return rec.Metrics().Ranks[rank].MPI }

// arrived is the put-with-notify completion predicate the put-based schedules
// wait on: n puts of the given instance have landed in w.
func arrived(w *Win, instance int64, n int) func() bool {
	return func() bool { return w.ReceivedFor(instance) >= n }
}

func TestPutDeliversData(t *testing.T) {
	bufs := make([][]byte, 2)
	runProg(t, 2, nil, func(c *Comm) {
		buf := make([]byte, 16)
		w := c.CreateWin(Bytes(buf))
		c.Barrier() // every rank has created its window
		k := w.NextInstance()
		if c.Rank() == 0 {
			c.Wait(w.PutInstanced(k, 1, 4, Bytes([]byte{9, 8, 7})))
		} else {
			c.WaitFor(arrived(w, k, 1))
		}
		bufs[c.Rank()] = buf
	})
	if bufs[1][4] != 9 || bufs[1][5] != 8 || bufs[1][6] != 7 {
		t.Fatalf("target window = %v", bufs[1])
	}
	if bufs[0][4] != 0 {
		t.Fatal("origin window modified")
	}
}

// On a host-attended transport the wire delivery alone changes nothing at the
// target: the put becomes visible, is counted, and its receive overhead plus
// copy is charged, at the target's next MPI instant.
func TestPutHostAttendedTransport(t *testing.T) {
	const size = 64 * 1024
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	runObserved(t, 2, func(p *netmodel.Params) { p.RDMA = false }, func(c *Comm, rec *obs.Recorder) {
		buf := make([]byte, size)
		w := c.CreateWin(Bytes(buf))
		c.Barrier() // every rank has created its window
		k := w.NextInstance()
		if c.Rank() == 0 {
			c.Wait(w.PutInstanced(k, 1, 0, Bytes(payload)))
			return
		}
		c.Compute(0.5) // the transfer arrives long before this ends
		if w.ReceivedFor(k) != 0 || buf[0] != 0 {
			t.Errorf("TCP put visible before the target entered MPI: count %d, window[0] = %d", w.ReceivedFor(k), buf[0])
		}
		before := mpiSeconds(rec, 1)
		c.WaitFor(arrived(w, k, 1))
		for i, v := range buf {
			if v != payload[i] {
				t.Fatalf("TCP put: window[%d] = %d, want %d", i, v, payload[i])
			}
		}
		p := c.RankState().Network().Params()
		if got, want := mpiSeconds(rec, 1)-before, p.ORecv+p.CopyTime(size); got < want {
			t.Errorf("target charged %g s for the put, want at least ORecv + copy = %g", got, want)
		}
	})
}

// On an RDMA transport a put lands without the target entering MPI: while
// the target computes, the origin's request completes and the bytes and the
// arrival count appear in the target's window.
func TestPutAutonomousOnRDMA(t *testing.T) {
	var originDone float64
	runObserved(t, 2, nil, func(c *Comm, rec *obs.Recorder) {
		buf := make([]byte, 64*1024)
		w := c.CreateWin(Bytes(buf))
		c.Barrier() // every rank has created its window
		k := w.NextInstance()
		switch c.Rank() {
		case 0:
			data := make([]byte, len(buf))
			data[len(data)-1] = 5
			c.Wait(w.PutInstanced(k, 1, 0, Bytes(data)))
			originDone = c.Now()
		case 1:
			mpiTime := mpiSeconds(rec, 1)
			c.Compute(0.5) // no MPI instants during the put
			if w.ReceivedFor(k) != 1 || buf[len(buf)-1] != 5 {
				t.Errorf("RDMA put not landed while the target computed: count %d, last byte %d", w.ReceivedFor(k), buf[len(buf)-1])
			}
			if mpiSeconds(rec, 1) != mpiTime {
				t.Error("RDMA put charged the target CPU")
			}
		}
	})
	if originDone > 0.1 {
		t.Fatalf("RDMA put completed at %g, should not wait for the target", originDone)
	}
}

// A put tagged for instance k+1 that arrives while the target is still in
// instance k is not counted for k, and is not lost either: it is there when
// the target starts k+1.
func TestEarlyPutCountsForItsOwnInstance(t *testing.T) {
	runProg(t, 2, nil, func(c *Comm) {
		w := c.CreateWin(Virtual(64))
		c.Barrier() // every rank has created its window
		k := w.NextInstance()
		if c.Rank() == 0 {
			c.Wait(w.PutInstanced(k, 1, 0, Virtual(8)))
			next := w.NextInstance()
			c.Wait(w.PutInstanced(next, 1, 8, Virtual(8)))
			return
		}
		c.Compute(0.5) // both puts land meanwhile
		if got := w.ReceivedFor(k); got != 1 {
			t.Errorf("instance %d counts %d puts, want 1 (the early put of instance %d leaked in)", k, got, k+1)
		}
		next := w.NextInstance()
		if got := w.ReceivedFor(next); got != 1 {
			t.Errorf("instance %d counts %d puts, want the 1 that arrived early", next, got)
		}
		if got := w.ReceivedFor(k); got != 0 {
			t.Errorf("finished instance %d still holds a count of %d", k, got)
		}
	})
}

func TestPutBoundsChecked(t *testing.T) {
	panicked := false
	runProg(t, 2, nil, func(c *Comm) {
		w := c.CreateWin(Bytes(make([]byte, 8)))
		c.Barrier() // every rank has created its window
		k := w.NextInstance()
		if c.Rank() == 0 {
			func() {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				w.PutInstanced(k, 1, 6, Bytes([]byte{1, 2, 3, 4})) // exceeds the window
			}()
		}
	})
	if !panicked {
		t.Fatal("oversized put accepted")
	}
}

func TestManyPutsCounted(t *testing.T) {
	const n = 4
	const chunk = 8
	bufs := make([][]byte, n)
	runProg(t, n, nil, func(c *Comm) {
		buf := make([]byte, n*chunk)
		w := c.CreateWin(Bytes(buf))
		c.Barrier() // every rank has created its window
		k := w.NextInstance()
		data := make([]byte, chunk)
		for i := range data {
			data[i] = byte(c.Rank() + 1)
		}
		var reqs []*Request
		for p := 0; p < n; p++ {
			if p != c.Rank() {
				reqs = append(reqs, w.PutInstanced(k, p, c.Rank()*chunk, Bytes(data)))
			}
		}
		c.Wait(reqs...)
		c.WaitFor(arrived(w, k, n-1))
		bufs[c.Rank()] = buf
	})
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			if bufs[r][p*chunk] != byte(p+1) {
				t.Fatalf("rank %d window chunk %d = %d", r, p, bufs[r][p*chunk])
			}
		}
	}
}
