package mpi

import (
	"bytes"
	"testing"
)

// heldPayloads is the number of payload slots the world's records still
// hold: slots taken minus slots released, summed over the shards (a slot
// released on another shard than the one that took it counts there).
func (w *World) heldPayloads() int {
	n := 0
	for _, s := range w.shards {
		n += s.held
	}
	return n
}

// payloadProg moves real bytes along every path that holds a payload in the
// world's table: an eager send matched by a posted receive, an eager send
// that waits in the unexpected queue, a rendezvous send, and a put. Rank 0
// sends to ranks 1 (eager) and 2 (rendezvous), rank 2 to rank 3 before rank 3
// posts its receive, and rank 3 puts into rank 1's window. Rank r receives
// into recv[r] and exposes win[r].
func payloadProg(small, big []byte, recv, win *[4][]byte) func(c *Comm) {
	return func(c *Comm) {
		me := c.Rank()
		w := c.CreateWin(Bytes(win[me]))
		c.Barrier()
		k := w.NextInstance()
		switch me {
		case 0:
			c.Send(1, 1, Bytes(small))
			c.Send(2, 2, Bytes(big))
		case 1:
			c.FreeRequests(c.Recv(0, 1, Bytes(recv[1])))
			c.WaitFor(arrived(w, k, 1))
		case 2:
			c.FreeRequests(c.Recv(0, 2, Bytes(recv[2])))
			c.Send(3, 3, Bytes(small))
		case 3:
			c.Compute(1e-3) // rank 2's eager message arrives unexpected
			c.FreeRequests(c.Recv(2, 3, Bytes(recv[3])))
			req := w.PutInstanced(k, 1, 2, Bytes(small))
			c.Wait(req)
			c.FreeRequests(req)
		}
		c.Barrier()
	}
}

// TestPayloadTableEndsEmpty runs payloadProg with real mpi.Bytes payloads on
// the sequential engine and on two shards, and then an unexpected eager
// message across a fork, and checks that the bytes arrive and that every
// payload slot a record took was released with it: a world at rest holds
// none. On two shards the slots of the eager, rendezvous and put records are
// taken on the sender's shard and released on the receiver's, which is what
// the race detector sees in `make race`.
func TestPayloadTableEndsEmpty(t *testing.T) {
	small := []byte{1, 2, 3, 4}
	big := make([]byte, 64*1024) // above the eager limit: rendezvous
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, shards := range []int{0, 2} {
		var w *World
		if shards == 0 {
			_, w = testWorld(t, 4, nil)
		} else {
			w = testShardedWorld(t, 4, 1, shards, nil)
		}
		recv := [4][]byte{nil, make([]byte, 4), make([]byte, len(big)), make([]byte, 4)}
		var win [4][]byte
		for r := range win {
			win[r] = make([]byte, 8)
		}
		w.Start(payloadProg(small, big, &recv, &win))
		w.Run()
		if !bytes.Equal(recv[1], small) || !bytes.Equal(recv[2], big) || !bytes.Equal(recv[3], small) {
			t.Errorf("%d shards: payloads arrived damaged: %v, %v, big intact %v", shards, recv[1], recv[3], bytes.Equal(recv[2], big))
		}
		if !bytes.Equal(win[1][2:6], small) {
			t.Errorf("%d shards: rank 1's window holds %v after the put", shards, win[1])
		}
		if n := w.heldPayloads(); n != 0 {
			t.Errorf("%d shards: the payload table holds %d slot(s) at rest, want 0", shards, n)
		}
	}

	// A fork carries an unexpected eager message, payload and slot included,
	// and then runs payloadProg like any world: at rest it holds that slot
	// alone, as does its parent after running the same program.
	eng, w := forkTestWorld(t, 4)
	w.Start(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 77, Bytes(small))
		} else if c.Rank() == 1 {
			c.Compute(1e-3)
			c.r.Progress() // the message enters the unexpected queue
		}
	})
	eng.Run()
	if n := w.heldPayloads(); n != 1 {
		t.Fatalf("the parent holds %d payload slot(s) for its one unexpected message, want 1", n)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	feng, fw := snap.Fork()
	if n := fw.heldPayloads(); n != 1 {
		t.Fatalf("the fork holds %d payload slot(s) for the unexpected message it carries, want 1", n)
	}
	if env := fw.shards[0].recs.env(fw.ranks[1].m.eager.ghead); !bytes.Equal(fw.shards[0].recs.data(env.buf).Data(), small) {
		t.Fatal("the fork's unexpected message lost its payload")
	}
	for _, run := range []struct {
		name string
		run  func()
		w    *World
	}{{"fork", func() { feng.Run() }, fw}, {"parent", func() { eng.Run() }, w}} {
		recv := [4][]byte{nil, make([]byte, 4), make([]byte, len(big)), make([]byte, 4)}
		var win [4][]byte
		for r := range win {
			win[r] = make([]byte, 8)
		}
		run.w.Start(payloadProg(small, big, &recv, &win))
		run.run()
		if !bytes.Equal(recv[2], big) || !bytes.Equal(win[1][2:6], small) {
			t.Errorf("%s: the rendezvous payload or the put arrived damaged", run.name)
		}
		if n := run.w.heldPayloads(); n != 1 {
			t.Errorf("%s: the payload table holds %d slot(s) at rest, want the carried message's 1", run.name, n)
		}
	}
}
