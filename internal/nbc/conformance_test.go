package nbc

// Property-based conformance suite: every non-blocking collective must
// produce results byte-identical to its blocking mpi counterpart over
// randomized (ranks, counts, roots, segment sizes) — both on a clean
// fabric and under a chaos profile with every injection mechanism active
// at once. Chaos perturbs timing only; any data divergence is a bug in a
// schedule, the matcher, or the injector itself.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"nbctune/internal/chaos"
	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

// confCases is the per-collective, per-mode case count. The acceptance bar
// is >= 200 randomized cases per collective; -short trims for local loops.
func confCases(t *testing.T) int {
	if testing.Short() {
		return 40
	}
	return 200
}

// tortureProfile turns on every injection mechanism at timescales matched
// to these micro-runs (sub-millisecond virtual durations).
func tortureProfile() chaos.Profile {
	return chaos.Profile{
		Name:             "conformance-torture",
		OSNoise:          chaos.OSNoise{NoiseRel: 0.05, DetourProb: 0.10, DetourTime: 2e-4},
		LatencyFactor:    2.5,
		BandwidthFactor:  0.5,
		JitterMean:       3e-5,
		BurstEvery:       4e-4,
		BurstLen:         1.5e-4,
		BurstBWFactor:    0.2,
		SlowNodeFrac:     0.3,
		SlowNodeBWFactor: 0.3,
		Shifts: []chaos.Shift{
			{At: 5e-4, LatencyFactor: 5, BandwidthFactor: 0.15},
			{At: 2e-3, LatencyFactor: 1, BandwidthFactor: 1},
		},
	}
}

// runConf runs prog on n single-rank-per-node ranks in the given mode, under
// the torture profile seeded with chaosSeed unless the mode is clean, so
// every case sees a different adversarial schedule.
func runConf(t testing.TB, n int, mode confMode, chaosSeed int64, prog func(c *mpi.Comm)) {
	t.Helper()
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	runConfOn(t, testParams(nil), nodeOf, mode, chaosSeed, prog)
}

// runConfOn runs prog on one rank per entry of nodeOf: on one engine, or in
// confShardedChaos mode on two shards (netmodel and mpi's sharded worlds, node
// ranges split in half as the platform layer splits them), each shard's
// network view with its own injector.
func runConfOn(t testing.TB, p netmodel.Params, nodeOf []int, mode confMode, chaosSeed int64, prog func(c *mpi.Comm)) {
	t.Helper()
	n, nodes := len(nodeOf), 0
	for _, nd := range nodeOf {
		nodes = max(nodes, nd+1)
	}
	attach := func(net *netmodel.Network) {
		if mode == confClean {
			return
		}
		in, err := chaos.NewInjector(tortureProfile(), chaosSeed, n, nodes)
		if err != nil {
			t.Fatal(err)
		}
		net.SetChaos(in)
	}
	opts := mpi.Options{Seed: 7}
	if mode != confShardedChaos {
		eng := sim.NewEngine(1)
		net, err := netmodel.New(eng, p, nodeOf)
		if err != nil {
			t.Fatal(err)
		}
		attach(net)
		w := mpi.NewWorld(eng, net, n, opts)
		w.Start(prog)
		eng.Run()
		return
	}
	engs := make([]*sim.Engine, min(2, nodes))
	for s := range engs {
		engs[s] = sim.NewEngine(1)
	}
	win := sim.NewWindows(engs, p.Latency)
	shardOfNode := make([]int, nodes)
	for nd := range shardOfNode {
		shardOfNode[nd] = nd * len(engs) / nodes
	}
	nets, err := netmodel.NewSharded(engs, win, p, nodeOf, shardOfNode)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range nets {
		attach(net)
	}
	sw, err := mpi.NewSharded(engs, nets, win, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	sw.Start(prog)
	sw.Run()
}

// confFill deterministically fills b from a per-(case,rank) tag, so every
// rank regenerates any peer's payload for oracle checks without sharing
// state.
func confFill(b []byte, tag uint64) {
	for i := range b {
		b[i] = byte(uint64(i)*0x9E3779B9 + tag*0x85EBCA6B)
	}
}

// confMode is the world a property runs on: clean, under the torture
// profile, or under it on a 2-shard (PDES) world, where the sender clamps
// each rank pair's wire times and the receiver its arrivals (the profile's
// jitter and its shift back down to factor 1 test both).
type confMode int

const (
	confClean confMode = iota
	confChaos
	confShardedChaos
)

func (m confMode) String() string { return [...]string{"clean", "chaos", "chaos-2-shards"}[m] }

// confModes runs the same property in one subtest per mode.
func confModes(t *testing.T, prop func(t *testing.T, mode confMode)) {
	for _, m := range []confMode{confClean, confChaos, confShardedChaos} {
		t.Run(m.String(), func(t *testing.T) { prop(t, m) })
	}
}

type mismatch struct {
	rank int
	err  string
}

// recordOn builds a thread-safe mismatch sink; ranks run in one engine
// goroutine set, so collect and report after the world drains.
func recordOn() (*[]mismatch, func(rank int, format string, args ...any), *sync.Mutex) {
	var mu sync.Mutex
	var ms []mismatch
	return &ms, func(rank int, format string, args ...any) {
		mu.Lock()
		ms = append(ms, mismatch{rank, fmt.Sprintf(format, args...)})
		mu.Unlock()
	}, &mu
}

func TestConformanceIalltoall(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0xA11, 0xC0F))
		for ci := 0; ci < confCases(t); ci++ {
			n := 2 + rng.IntN(9)        // 2..10 ranks
			bs := 1 + rng.IntN(16*1024) // crosses the 12 KiB eager limit
			algo := DefaultAlltoallAlgos[rng.IntN(len(DefaultAlltoallAlgos))]
			ms, record, _ := recordOn()
			runConf(t, n, mode, int64(ci+1), func(c *mpi.Comm) {
				me := c.Rank()
				send := make([]byte, n*bs)
				confFill(send, uint64(ci)<<8|uint64(me))
				nb := make([]byte, n*bs)
				Run(c, Ialltoall(n, me, mpi.Bytes(send), mpi.Bytes(nb), algo))
				bl := make([]byte, n*bs)
				c.Alltoall(mpi.Bytes(send), mpi.Bytes(bl))
				if !bytes.Equal(nb, bl) {
					record(me, "nbc and blocking alltoall differ")
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("case %d (n=%d bs=%d algo=%v mode=%v): %v", ci, n, bs, algo, mode, (*ms)[0])
			}
		}
	})
}

func TestConformanceIbcast(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0xB0C, 0xA57))
		for ci := 0; ci < confCases(t); ci++ {
			n := 1 + rng.IntN(10)
			root := rng.IntN(n)
			size := 1 + rng.IntN(96*1024) // spans several segments at every segsize
			fanout := DefaultFanouts[rng.IntN(len(DefaultFanouts))]
			segSize := DefaultSegSizes[rng.IntN(len(DefaultSegSizes))]
			ms, record, _ := recordOn()
			runConf(t, n, mode, int64(ci+1), func(c *mpi.Comm) {
				me := c.Rank()
				nb := make([]byte, size)
				bl := make([]byte, size)
				if me == root {
					confFill(nb, uint64(ci))
					confFill(bl, uint64(ci))
				}
				Run(c, Ibcast(n, me, root, mpi.Bytes(nb), fanout, segSize))
				c.Bcast(root, mpi.Bytes(bl))
				if !bytes.Equal(nb, bl) {
					record(me, "nbc and blocking bcast differ")
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("case %d (n=%d root=%d size=%d fanout=%s seg=%d mode=%v): %v",
					ci, n, root, size, FanoutName(fanout), segSize, mode, (*ms)[0])
			}
		}
	})
}

func TestConformanceIallreduce(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0xA11, 0x4ed))
		for ci := 0; ci < confCases(t); ci++ {
			n := 1 + rng.IntN(10)
			count := 1 + rng.IntN(256) // float64s
			algo := []AllreduceAlgo{AllreduceRecursiveDoubling, AllreduceReduceBcast}[rng.IntN(2)]
			ms, record, _ := recordOn()
			runConf(t, n, mode, int64(ci+1), func(c *mpi.Comm) {
				me := c.Rank()
				// Small-integer values: float64 sums are exact in any
				// association order, so byte-identity is well defined.
				vals := make([]float64, count)
				for i := range vals {
					vals[i] = float64((me*31 + i*7 + ci) % 1000)
				}
				send := mpi.Float64sToBytes(vals)
				nb := make([]byte, len(send))
				Run(c, Iallreduce(n, me, mpi.Bytes(send), mpi.Bytes(nb), mpi.SumFloat64, algo))
				bl := make([]byte, len(send))
				c.Allreduce(mpi.Bytes(send), mpi.Bytes(bl), mpi.SumFloat64)
				if !bytes.Equal(nb, bl) {
					record(me, "nbc and blocking allreduce differ")
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("case %d (n=%d count=%d algo=%v mode=%v): %v", ci, n, count, algo, mode, (*ms)[0])
			}
		}
	})
}

func TestConformanceIgather(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0x6A7, 0x43e))
		for ci := 0; ci < confCases(t); ci++ {
			n := 1 + rng.IntN(10)
			root := rng.IntN(n)
			bs := 1 + rng.IntN(16*1024)
			ms, record, _ := recordOn()
			runConf(t, n, mode, int64(ci+1), func(c *mpi.Comm) {
				me := c.Rank()
				send := make([]byte, bs)
				confFill(send, uint64(ci)<<8|uint64(me))
				var nb, bl []byte
				if me == root {
					nb = make([]byte, n*bs)
					bl = make([]byte, n*bs)
				}
				Run(c, Igather(n, me, root, mpi.Bytes(send), mpi.Bytes(nb)))
				c.Gather(root, mpi.Bytes(send), mpi.Bytes(bl))
				if me == root && !bytes.Equal(nb, bl) {
					record(me, "nbc and blocking gather differ")
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("case %d (n=%d root=%d bs=%d mode=%v): %v", ci, n, root, bs, mode, (*ms)[0])
			}
		}
	})
}

func TestConformanceIscatter(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0x5Ca, 0x77e))
		for ci := 0; ci < confCases(t); ci++ {
			n := 1 + rng.IntN(10)
			root := rng.IntN(n)
			bs := 1 + rng.IntN(16*1024)
			ms, record, _ := recordOn()
			runConf(t, n, mode, int64(ci+1), func(c *mpi.Comm) {
				me := c.Rank()
				var send []byte
				if me == root {
					send = make([]byte, n*bs)
					confFill(send, uint64(ci))
				}
				nb := make([]byte, bs)
				Run(c, Iscatter(n, me, root, mpi.Bytes(send), mpi.Bytes(nb)))
				bl := make([]byte, bs)
				c.Scatter(root, mpi.Bytes(send), mpi.Bytes(bl))
				if !bytes.Equal(nb, bl) {
					record(me, "nbc and blocking scatter differ")
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("case %d (n=%d root=%d bs=%d mode=%v): %v", ci, n, root, bs, mode, (*ms)[0])
			}
		}
	})
}

func TestConformanceIallgather(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0xA11, 0x6a7))
		for ci := 0; ci < confCases(t); ci++ {
			n := 1 + rng.IntN(10)
			bs := 1 + rng.IntN(16*1024)
			algo := []AllgatherAlgo{AllgatherRing, AllgatherLinear, AllgatherBruck}[rng.IntN(3)]
			ms, record, _ := recordOn()
			runConf(t, n, mode, int64(ci+1), func(c *mpi.Comm) {
				me := c.Rank()
				send := make([]byte, bs)
				confFill(send, uint64(ci)<<8|uint64(me))
				nb := make([]byte, n*bs)
				Run(c, Iallgather(n, me, mpi.Bytes(send), mpi.Bytes(nb), algo))
				bl := make([]byte, n*bs)
				c.Allgather(mpi.Bytes(send), mpi.Bytes(bl))
				if !bytes.Equal(nb, bl) {
					record(me, "nbc and blocking allgather differ")
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("case %d (n=%d bs=%d algo=%v mode=%v): %v", ci, n, bs, algo, mode, (*ms)[0])
			}
		}
	})
}

func TestConformanceIreduce(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0x4ed, 0x0ce))
		for ci := 0; ci < confCases(t); ci++ {
			n := 1 + rng.IntN(10)
			root := rng.IntN(n)
			count := 1 + rng.IntN(256)
			algo := []ReduceAlgo{ReduceBinomial, ReduceChain}[rng.IntN(2)]
			ms, record, _ := recordOn()
			runConf(t, n, mode, int64(ci+1), func(c *mpi.Comm) {
				me := c.Rank()
				vals := make([]float64, count)
				for i := range vals {
					vals[i] = float64((me*17 + i*5 + ci) % 1000)
				}
				send := mpi.Float64sToBytes(vals)
				nb := make([]byte, len(send))
				Run(c, Ireduce(n, me, root, mpi.Bytes(send), mpi.Bytes(nb), mpi.SumFloat64, algo))
				bl := make([]byte, len(send))
				c.Reduce(root, mpi.Bytes(send), mpi.Bytes(bl), mpi.SumFloat64)
				if me == root && !bytes.Equal(nb, bl) {
					record(me, "nbc and blocking reduce differ")
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("case %d (n=%d root=%d count=%d algo=%v mode=%v): %v",
					ci, n, root, count, algo, mode, (*ms)[0])
			}
		}
	})
}

func TestConformanceIbarrier(t *testing.T) {
	// Barriers move no data; conformance here is the synchronization
	// invariant the blocking Barrier also guarantees: no rank leaves before
	// the last rank arrives — clean and under chaos.
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0xBA2, 0x21e))
		for ci := 0; ci < confCases(t); ci++ {
			n := 2 + rng.IntN(9)
			stagger := 1e-4 * float64(1+rng.IntN(20))
			var mu sync.Mutex
			var maxBefore float64
			minAfter := 1e18
			runConf(t, n, mode, int64(ci+1), func(c *mpi.Comm) {
				c.Compute(stagger * float64(c.Rank()+1))
				mu.Lock()
				if c.Now() > maxBefore {
					maxBefore = c.Now()
				}
				mu.Unlock()
				Run(c, Ibarrier(n, c.Rank()))
				mu.Lock()
				if c.Now() < minAfter {
					minAfter = c.Now()
				}
				mu.Unlock()
			})
			if minAfter < maxBefore {
				t.Fatalf("case %d (n=%d mode=%v): a rank left the barrier at %g before the last arrival %g",
					ci, n, mode, minAfter, maxBefore)
			}
		}
	})
}
