package mpi

import (
	"testing"

	"nbctune/internal/chaos"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

// testShardedWorld builds an n-rank sharded world with ranksPerNode ranks
// per node over the same parameter set as testWorld.
func testShardedWorld(t testing.TB, n, ranksPerNode, shards int) *ShardedWorld {
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
	shardOfNode := make([]int, usedNodes)
	for nd := range shardOfNode {
		shardOfNode[nd] = nd * shards / usedNodes
	}
	nets, err := netmodel.NewSharded(engs, win, p, nodeOf, shardOfNode)
	if err != nil {
		t.Fatal(err)
	}
	shardOf := make([]int, n)
	for r := range shardOf {
		shardOf[r] = shardOfNode[nodeOf[r]]
	}
	sw, err := NewSharded(engs, nets, win, n, Options{Seed: 42}, shardOf)
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
	sw := testShardedWorld(t, 4, 2, 2) // ranks 0,1 node 0 / shard 0; ranks 2,3 node 1 / shard 1
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
		sw := testShardedWorld(t, n, perNode, shards)
		prog, times := shardedRingProg(n, sizes)
		sw.Start(prog)
		sw.Run()
		res := result{doneAt: times(), now: sw.win.Now()}
		for i := 0; i < n; i++ {
			res.mpiTime = append(res.mpiTime, sw.worlds[0].ranks[i].MPITime)
		}
		return res
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

// TestShardedGates pins the unsupported-feature guards: chaos at
// construction, one-sided windows at CreateWin.
func TestShardedGates(t *testing.T) {
	inj, err := chaos.NewInjector(chaos.Profile{Name: "x", LatencyFactor: 2}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSharded(nil, nil, nil, 2, Options{Chaos: inj}, []int{0, 0}); err == nil {
		t.Error("NewSharded with chaos: want error")
	}
	sw := testShardedWorld(t, 2, 2, 1)
	sw.Start(func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("CreateWin on sharded world: want panic")
			}
		}()
		c.CreateWin(Bytes(make([]byte, 8)))
	})
	sw.Run()
}
