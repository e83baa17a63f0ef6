package mpi

import (
	"testing"

	"nbctune/internal/chaos"
	"nbctune/internal/netmodel"
	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

// testShardedWorld builds an n-rank sharded world with ranksPerNode ranks
// per node over the same parameter set as testWorld, mutate applied.
func testShardedWorld(t testing.TB, n, ranksPerNode, shards int, mutate func(*netmodel.Params)) *ShardedWorld {
	t.Helper()
	p := netmodel.Params{
		Name:          "test-ib",
		Latency:       2e-6,
		Bandwidth:     1.5e9,
		NICs:          1,
		OSend:         1e-6,
		ORecv:         1e-6,
		OPost:         2e-7,
		OProgress:     5e-7,
		OTest:         5e-8,
		EagerLimit:    12 * 1024,
		RDMA:          true,
		CtrlBytes:     64,
		CopyBandwidth: 4e9,
		ShmLatency:    4e-7,
		ShmBandwidth:  5e9,
		IncastK:       8,
		IncastBeta:    0.02,
	}
	if mutate != nil {
		mutate(&p)
	}
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i / ranksPerNode
	}
	usedNodes := (n + ranksPerNode - 1) / ranksPerNode
	if shards > usedNodes {
		shards = usedNodes
	}
	engs := make([]*sim.Engine, shards)
	for s := range engs {
		engs[s] = sim.NewEngine(42)
	}
	win := sim.NewWindows(engs, p.Latency)
	nodeShard := make([]int, usedNodes)
	for nd := range nodeShard {
		nodeShard[nd] = nd * shards / usedNodes
	}
	nets, err := netmodel.NewSharded(engs, win, p, nodeOf, nodeShard)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSharded(engs, nets, win, n, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestShardedDataIntegrity moves real payloads across every protocol path a
// sharded world supports — intra-node eager (shm), cross-node eager, and
// cross-node rendezvous — and checks the bytes arrive intact.
func TestShardedDataIntegrity(t *testing.T) {
	big := make([]byte, 64*1024) // above the eager limit: rendezvous
	for i := range big {
		big[i] = byte(i * 13)
	}
	gotShm := make([]byte, 4)
	gotEager := make([]byte, 4)
	gotBig := make([]byte, len(big))
	sw := testShardedWorld(t, 4, 2, 2, nil) // ranks 0,1 node 0 / shard 0; ranks 2,3 node 1 / shard 1
	sw.Start(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, Bytes([]byte{1, 2, 3, 4})) // same node
			c.Send(2, 8, Bytes([]byte{5, 6, 7, 8})) // cross shard, eager
			c.Send(3, 9, Bytes(big))                // cross shard, rendezvous
		case 1:
			c.Recv(0, 7, Bytes(gotShm))
		case 2:
			req := c.Recv(0, 8, Bytes(gotEager))
			if req.SrcActual != 0 || req.TagActual != 8 {
				t.Errorf("match metadata = (%d,%d), want (0,8)", req.SrcActual, req.TagActual)
			}
		case 3:
			c.Recv(0, 9, Bytes(gotBig))
		}
	})
	sw.Run()
	if string(gotShm) != string([]byte{1, 2, 3, 4}) {
		t.Errorf("shm payload = %v", gotShm)
	}
	if string(gotEager) != string([]byte{5, 6, 7, 8}) {
		t.Errorf("eager payload = %v", gotEager)
	}
	for i := range big {
		if gotBig[i] != big[i] {
			t.Fatalf("rendezvous payload corrupted at byte %d", i)
		}
	}
}

// shardedRingProg is a mixed workload: a ring sendrecv at several message
// sizes spanning the eager limit, interleaved with compute phases, followed
// by an all-to-one incast onto rank 0.
func shardedRingProg(n int, sizes []int) (func(c *Comm), func() []float64) {
	doneAt := make([]float64, n)
	prog := func(c *Comm) {
		n := c.Size()
		right := (c.Rank() + 1) % n
		left := (c.Rank() - 1 + n) % n
		for _, sz := range sizes {
			sb, rb := make([]byte, sz), make([]byte, sz)
			c.Compute(3e-6)
			c.Sendrecv(right, 5, Bytes(sb), left, 5, Bytes(rb))
		}
		if c.Rank() == 0 {
			rb := make([]byte, 256)
			for src := 1; src < n; src++ {
				c.Recv(src, 6, Bytes(rb))
			}
		} else {
			c.Send(0, 6, Bytes(make([]byte, 256)))
		}
		doneAt[c.Rank()] = c.Now() // each rank writes only its own slot
	}
	return prog, func() []float64 { return doneAt }
}

// TestShardedDeterminismAcrossShardCounts pins the tentpole invariant at the
// mpi layer: per-rank completion times, MPI time accounting, total events
// and final virtual time are bit-identical at every shard count.
func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	const n, perNode = 16, 2 // 8 nodes
	sizes := []int{64, 4096, 32 * 1024}
	type result struct {
		doneAt  []float64
		mpiTime []float64
		now     float64
	}
	run := func(shards int) result {
		sw := testShardedWorld(t, n, perNode, shards, nil)
		rec := obs.NewRecorder(n)
		sw.Observe(rec)
		prog, times := shardedRingProg(n, sizes)
		sw.Start(prog)
		sw.Run()
		return result{doneAt: times(), mpiTime: recordedMPI(rec), now: sw.win.Now()}
	}
	base := run(1)
	for _, shards := range []int{2, 4, 8} {
		got := run(shards)
		if got.now != base.now {
			t.Errorf("shards=%d: final time %.12g != %.12g", shards, got.now, base.now)
		}
		for i := 0; i < n; i++ {
			if got.doneAt[i] != base.doneAt[i] {
				t.Errorf("shards=%d: rank %d done at %.12g != %.12g", shards, i, got.doneAt[i], base.doneAt[i])
			}
			if got.mpiTime[i] != base.mpiTime[i] {
				t.Errorf("shards=%d: rank %d MPI time %.12g != %.12g", shards, i, got.mpiTime[i], base.mpiTime[i])
			}
		}
	}
}

// recordedMPI is each rank's time inside MPI as the recorder saw it.
func recordedMPI(rec *obs.Recorder) []float64 {
	var out []float64
	for _, rm := range rec.Metrics().Ranks {
		out = append(out, rm.MPI)
	}
	return out
}

// shardedChaos gives every shard's network view its own injector of prof,
// as platform.NewWorldPDESChaos does.
func shardedChaos(t testing.TB, sw *ShardedWorld, prof chaos.Profile, seed int64) {
	t.Helper()
	for _, w := range sw.worlds {
		inj, err := chaos.NewInjector(prof, seed, len(w.ranks), w.net.Topo().NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		w.net.SetChaos(inj)
	}
}

// TestShardedChaosAndPuts runs what a sharded world once refused — a chaos
// profile with OS noise, jitter, bursts and a shift back down to the clean
// latency, under one-sided puts with real payloads across shards and nodes
// and rendezvous sends — and pins that every window receives exactly what
// was put, that chaos bites, and that completion times, MPI time and the
// final clock are bit-identical at every shard count.
func TestShardedChaosAndPuts(t *testing.T) {
	const n, perNode, chunk = 8, 2, 20 * 1024 // above the eager limit
	prof := chaos.Profile{
		Name: "sharded", OSNoise: chaos.OSNoise{NoiseRel: 0.05, DetourProb: 0.1, DetourTime: 2e-5},
		LatencyFactor: 2, JitterMean: 5e-6, BurstEvery: 1e-4, BurstLen: 3e-5, BurstBWFactor: 0.3,
		Shifts: []chaos.Shift{{At: 2e-4, LatencyFactor: 8}, {At: 4e-4, LatencyFactor: 1}},
	}
	type result struct {
		doneAt, mpiTime []float64
		now             float64
	}
	run := func(shards int, noisy bool) result {
		sw := testShardedWorld(t, n, perNode, shards, nil)
		if noisy {
			shardedChaos(t, sw, prof, 3)
		}
		rec := obs.NewRecorder(n)
		sw.Observe(rec)
		doneAt := make([]float64, n)
		sw.Start(func(c *Comm) {
			me := c.Rank()
			win := make([]byte, n*chunk)
			w := c.CreateWin(Bytes(win))
			c.Barrier()
			for it := 0; it < 3; it++ {
				k := w.NextInstance()
				var reqs []*Request
				for off := 1; off < n; off++ {
					peer := (me + off) % n
					data := make([]byte, chunk)
					for i := range data {
						data[i] = byte(me*31 + peer*7 + it + i)
					}
					reqs = append(reqs, w.PutInstanced(k, peer, me*chunk, Bytes(data)))
				}
				c.Compute(1e-5)
				c.Wait(reqs...)
				c.WaitFor(arrived(w, k, n-1))
				for src := 0; src < n; src++ {
					for i, b := range win[src*chunk : (src+1)*chunk] {
						if src != me && b != byte(src*31+me*7+it+i) {
							t.Errorf("shards=%d iteration %d: rank %d window byte %d from rank %d = %d", shards, it, me, i, src, b)
							return
						}
					}
				}
				sb, rb := make([]byte, chunk), make([]byte, chunk)
				c.Sendrecv((me+1)%n, it, Bytes(sb), (me+n-1)%n, it, Bytes(rb))
				c.Barrier()
			}
			doneAt[me] = c.Now()
		})
		sw.Run()
		return result{doneAt: doneAt, mpiTime: recordedMPI(rec), now: sw.Now()}
	}
	if clean, noisy := run(1, false), run(1, true); noisy.now <= clean.now {
		t.Errorf("chaos did not slow the program down: %g s, clean %g s", noisy.now, clean.now)
	}
	base := run(1, true)
	for _, shards := range []int{2, 4} {
		got := run(shards, true)
		if got.now != base.now {
			t.Errorf("shards=%d: final time %.17g != %.17g", shards, got.now, base.now)
		}
		for i := 0; i < n; i++ {
			if got.doneAt[i] != base.doneAt[i] || got.mpiTime[i] != base.mpiTime[i] {
				t.Errorf("shards=%d: rank %d done at %.17g with MPI time %.17g, want %.17g and %.17g",
					shards, i, got.doneAt[i], got.mpiTime[i], base.doneAt[i], base.mpiTime[i])
			}
		}
	}
}
