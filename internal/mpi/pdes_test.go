package mpi

import (
	"testing"

	"nbctune/internal/chaos"
	"nbctune/internal/netmodel"
	"nbctune/internal/obs"
)

// testShardedWorld builds an n-rank world on the sharded engine with
// ranksPerNode ranks per node over testParams, mutate applied.
func testShardedWorld(t testing.TB, n, ranksPerNode, shards int, mutate func(*netmodel.Params)) *World {
	t.Helper()
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i / ranksPerNode
	}
	nets, win, err := netmodel.NewSharded(testParams(mutate), nodeOf, shards, 42)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(nets, win, n, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return w
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
			if req.SrcActual() != 0 || req.TagActual() != 8 {
				t.Errorf("match metadata = (%d,%d), want (0,8)", req.SrcActual(), req.TagActual())
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
// as platform.Assemble does.
func shardedChaos(t testing.TB, w *World, prof chaos.Profile, seed int64) {
	t.Helper()
	for _, s := range w.shards {
		inj, err := chaos.NewInjector(prof, seed, len(w.ranks), s.net.Topo().NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		s.net.SetChaos(inj)
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

// TestRecordsCrossShards follows protocol records across the two shards of a
// sharded world. Rank 0 runs on shard 0 and rank 1 on shard 1. A rendezvous
// send from rank 0 draws its RTS envelope and its bulk xfer on shard 0; rank
// 1 frees both into shard 1's pools, still naming shard 0's slab. Rank 1's
// rendezvous send back draws those two records again on shard 1, and rank 0
// frees them into shard 0's pools: the records end where they started.
func TestRecordsCrossShards(t *testing.T) {
	w := testShardedWorld(t, 2, 1, 2, nil)
	s0, s1 := w.shards[0], w.shards[1]
	if w.ranks[0].w != s0 || w.ranks[1].w != s1 {
		t.Fatal("ranks 0 and 1 do not run on shards 0 and 1")
	}
	shardOf := func(i int32) int { return int(uint32(i) >> 25) }
	var env, x int32
	w.Start(func(c *Comm) {
		big := Virtual(64 << 10) // above the eager limit: rendezvous
		if c.Rank() == 0 {
			c.Send(1, 9, big)
			c.FreeRequests(c.Recv(1, 10, big))
			return
		}
		c.FreeRequests(c.Recv(0, 9, big))
		env, x = s1.envFree, s1.xfFree
		if env == 0 || x == 0 || shardOf(env) != 0 || shardOf(x) != 0 {
			t.Errorf("shard 1 holds envelope %#x and xfer %#x after the first exchange, want records of shard 0", env, x)
		}
		c.Send(0, 10, big)
		if s1.envFree == env || s1.xfFree == x {
			t.Error("rank 1's rendezvous send did not draw the records shard 1 held")
		}
	})
	w.Run()
	if s0.envFree != env || s0.xfFree != x {
		t.Errorf("shard 0 holds envelope %#x and xfer %#x, want %#x and %#x back", s0.envFree, s0.xfFree, env, x)
	}
	if got := w.shards[0].recs.env(env); got.self != env || got.sreq != 0 || got.buf != (payload{}) {
		t.Errorf("envelope %#x came back as %+v, not blank", env, *got)
	}
}
