package mpi

import (
	"bytes"
	"strings"
	"testing"

	"nbctune/internal/chaos"
	"nbctune/internal/netmodel"
	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

// forkTestWorld builds an n-rank world with both host-side and network-side
// chaos attached, so fork determinism is exercised across every cloned
// stream (rank RNGs, compute noise, link jitter, burst machine).
func forkTestWorld(t testing.TB, n int) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine(5)
	p := netmodel.Params{
		Name: "fork-ib", Latency: 2e-6, Bandwidth: 1.5e9, NICs: 1,
		OSend: 1e-6, ORecv: 1e-6, OPost: 2e-7, OProgress: 5e-7, OTest: 5e-8,
		EagerLimit: 12 * 1024, RDMA: true, CtrlBytes: 64,
		CopyBandwidth: 4e9, ShmLatency: 4e-7, ShmBandwidth: 5e9,
		IncastK: 8, IncastBeta: 0.02,
	}
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	net, err := netmodel.New(eng, p, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	prof := chaos.Profile{
		Name: "fork-test", OSNoise: chaos.OSNoise{NoiseRel: 0.05, DetourProb: 0.02, DetourTime: 5e-6},
		JitterMean: 5e-7, BurstEvery: 5e-4, BurstLen: 1e-4, BurstBWFactor: 0.3,
	}
	in, err := chaos.NewInjector(prof, 17, n, n)
	if err != nil {
		t.Fatal(err)
	}
	net.SetChaos(in)
	w, err := NewWorld([]*netmodel.Network{net}, nil, n, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

// forkFingerprint runs a protocol-heavy program (eager and rendezvous
// traffic, collectives, noisy compute) on a world and condenses everything
// observable into a slice of floats for exact comparison.
func forkFingerprint(eng *sim.Engine, w *World) []float64 {
	n := len(w.ranks)
	rec := obs.NewRecorder(n)
	w.Observe(rec)
	w.Start(func(c *Comm) {
		me := c.Rank()
		peer := (me + 1) % n
		for it := 0; it < 5; it++ {
			c.Compute(2e-5)
			req := c.Irecv((me+n-1)%n, 9, Virtual(64*1024)) // rendezvous
			c.Send(peer, 9, Virtual(64*1024))
			c.Wait(req)
			c.Compute(1e-5)
			c.Send(peer, 10, Virtual(256)) // eager
			c.Recv((me+n-1)%n, 10, Virtual(256))
			c.Barrier()
		}
	})
	eng.Run()
	fp := recorded(eng, w, rec)
	for _, r := range w.ranks {
		fp = append(fp, r.random().Rand.Float64())
	}
	return fp
}

// TestWorldForkDeterminism pins the fork contract end-to-end: two forks of
// one snapshot replay an identical program with byte-identical timing, event
// counts, accounting and RNG positions — independent of the parent mutating
// its own state between the forks.
func TestWorldForkDeterminism(t *testing.T) {
	eng, w := forkTestWorld(t, 4)
	forkFingerprint(eng, w) // advance the parent to a lived-in state
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	e1, w1 := snap.Fork()
	a := forkFingerprint(e1, w1)
	forkFingerprint(eng, w) // mutate the parent between forks
	e2, w2 := snap.Fork()
	b := forkFingerprint(e2, w2)

	if len(a) != len(b) {
		t.Fatalf("fingerprint lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fork fingerprint slot %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0] <= snap.sim.Now() {
		t.Fatal("fork program did not advance virtual time")
	}
}

// TestForkCarriesUnexpectedEager pins the one piece of message state that
// crosses a snapshot: an eager payload buffered at the receiver with no
// posted receive. The fork must hold a deep copy — same bytes, private
// storage — in its unexpected queue.
func TestForkCarriesUnexpectedEager(t *testing.T) {
	eng, w := forkTestWorld(t, 2)
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 5, 6, 7, 8}
	w.Start(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 77, Bytes(payload))
		case 1:
			c.Compute(1e-3) // let the eager payload arrive...
			c.r.Progress()  // ...and enter the unexpected queue
		}
	})
	eng.Run()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, fw := snap.Fork()
	q := &fw.ranks[1].m.eager
	if q.count != 1 {
		t.Fatalf("fork unexpected-eager count = %d, want 1", q.count)
	}
	env := q.ghead
	if env.src != 0 || env.dst != 1 || env.tag != 77 {
		t.Fatalf("fork envelope header (src=%d dst=%d tag=%d) wrong", env.src, env.dst, env.tag)
	}
	got := env.buf.Data()
	if !bytes.Equal(got, payload) {
		t.Fatalf("fork envelope payload = %x, want %x", got, payload)
	}
	parentEnv := w.ranks[1].m.eager.ghead
	if parentEnv == env || &parentEnv.buf.Data()[0] == &got[0] {
		t.Fatal("fork envelope aliases the parent's storage")
	}
}

// TestSnapshotRefusesInFlightState verifies the descriptive refusals: a
// posted receive with no matching send leaves protocol state a fork could
// not honor, so Snapshot must fail rather than silently drop it.
func TestSnapshotRefusesInFlightState(t *testing.T) {
	eng, w := forkTestWorld(t, 2)
	w.Start(func(c *Comm) {
		if c.Rank() == 1 {
			c.Irecv(0, 5, Virtual(64)) // posted, never matched, never waited
		}
	})
	eng.RunUntil(1)
	if _, err := w.Snapshot(); err == nil {
		t.Fatal("snapshot with a posted receive outstanding must fail")
	}
}

// TestSnapshotRefusesShardedWorld: a world on windows is an mpi.World like any
// other, and its snapshot is refused by netmodel, which will not snapshot a
// sharded view, even at a quiescent point.
func TestSnapshotRefusesShardedWorld(t *testing.T) {
	w := testShardedWorld(t, 4, 2, 2, nil)
	w.Start(func(c *Comm) { c.Barrier() })
	w.Run()
	if _, err := w.Snapshot(); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("snapshot of a 2-shard world: error %v, want netmodel's refusal of a sharded network", err)
	}
}
