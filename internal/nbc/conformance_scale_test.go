package nbc

// Conformance coverage for the scalable algorithm variants (scale.go): the
// Bruck allgather, the binomial-tree barrier, and the torus-aware broadcast.
// Small-n cases randomize placement and compare against the blocking
// counterparts exactly like conformance_test.go; the Scale tests push the
// same properties to 256–4096 ranks (smoke-sized repetition counts), where a
// blocking oracle would dominate the runtime, so each rank instead checks
// its result against the deterministic confFill reconstruction.

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
)

// runConfTorus is runConf with an explicit rank→node placement on a 3D torus
// of the given dimensions, so tests control multi-rank nodes and sparse
// (partially occupied) machines.
func runConfTorus(t testing.TB, nodeOf []int, dims [3]int, mode confMode, chaosSeed int64, prog func(c *mpi.Comm)) {
	t.Helper()
	runConfOn(t, testParams(func(p *netmodel.Params) {
		p.Topology = netmodel.Torus3D
		p.TorusDims = dims
		p.HopLatency = 5e-7
	}), nodeOf, mode, chaosSeed, prog)
}

func TestConformanceIbcastTorus(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0x702, 0xBca))
		for ci := 0; ci < confCases(t); ci++ {
			dims := [3]int{2 + rng.IntN(3), 2 + rng.IntN(3), 1 + rng.IntN(3)}
			cap := dims[0] * dims[1] * dims[2]
			n := 2 + rng.IntN(19) // 2..20 ranks
			// Random placement: multiple ranks may share a node and most
			// nodes may stay empty, exercising leader election, the local
			// shm fanout, and the skip-unoccupied parent walk.
			nodeOf := make([]int, n)
			for i := range nodeOf {
				nodeOf[i] = rng.IntN(cap)
			}
			root := rng.IntN(n)
			size := 1 + rng.IntN(96*1024)
			segSize := DefaultSegSizes[rng.IntN(len(DefaultSegSizes))]
			ms, record, _ := recordOn()
			runConfTorus(t, nodeOf, dims, mode, int64(ci+1), func(c *mpi.Comm) {
				me := c.Rank()
				nb := make([]byte, size)
				bl := make([]byte, size)
				if me == root {
					confFill(nb, uint64(ci))
					confFill(bl, uint64(ci))
				}
				Run(c, IbcastTorus(c, root, mpi.Bytes(nb), segSize))
				c.Bcast(root, mpi.Bytes(bl))
				if !bytes.Equal(nb, bl) {
					record(me, "torus and blocking bcast differ")
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("case %d (n=%d dims=%v root=%d size=%d seg=%d mode=%v): %v",
					ci, n, dims, root, size, segSize, mode, (*ms)[0])
			}
		}
	})
}

func TestConformanceIbarrierTree(t *testing.T) {
	// Same synchronization invariant as TestConformanceIbarrier: no rank may
	// leave the barrier before the last rank arrives.
	confModes(t, func(t *testing.T, mode confMode) {
		rng := rand.New(rand.NewPCG(0xBA2, 0x72e))
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
				Run(c, IbarrierTree(n, c.Rank()))
				mu.Lock()
				if c.Now() < minAfter {
					minAfter = c.Now()
				}
				mu.Unlock()
			})
			if minAfter < maxBefore {
				t.Fatalf("case %d (n=%d mode=%v): a rank left the tree barrier at %g before the last arrival %g",
					ci, n, mode, minAfter, maxBefore)
			}
		}
	})
}

// scaleReps returns the smoke-sized repetition count for the large-rank
// property tests below.
func scaleReps(t *testing.T) int {
	if testing.Short() {
		return 1
	}
	return 3
}

// scaleRanks picks the rank count for a scale conformance test: cap ranks in
// full mode, the floor of the 256–4096 window in -short.
func scaleRanks(t *testing.T, cap int) int {
	if testing.Short() {
		return 256
	}
	return cap
}

func TestScaleConformanceIallgatherBruck(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		n := scaleRanks(t, 1024)
		if mode != confClean {
			n = 256 // torture-profile events per message make 1K+ ranks too slow for tier-1
		}
		for rep := 0; rep < scaleReps(t); rep++ {
			bs := 4 + rep*13 // small blocks: the Bruck regime
			ms, record, _ := recordOn()
			runConf(t, n, mode, int64(rep+1), func(c *mpi.Comm) {
				me := c.Rank()
				send := make([]byte, bs)
				confFill(send, uint64(rep)<<16|uint64(me))
				recv := make([]byte, n*bs)
				Run(c, IallgatherBruck(n, me, mpi.Bytes(send), mpi.Bytes(recv)))
				// Local oracle: regenerate every peer's payload.
				want := make([]byte, bs)
				for peer := 0; peer < n; peer++ {
					confFill(want, uint64(rep)<<16|uint64(peer))
					if !bytes.Equal(recv[peer*bs:(peer+1)*bs], want) {
						record(me, "block from rank %d corrupt", peer)
						break
					}
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("rep %d (n=%d bs=%d mode=%v): rank %d: %s",
					rep, n, bs, mode, (*ms)[0].rank, (*ms)[0].err)
			}
		}
	})
}

func TestScaleConformanceIbcastTorus(t *testing.T) {
	// 4096 ranks as 4 ranks per node on 1024 occupied nodes of a 16x16x16
	// torus — a sparse BlueGene/P-style placement where the node tree must
	// route around 3072 unoccupied positions. -short shrinks to 256 ranks on
	// a 4x4x4 torus, as does chaos mode.
	confModes(t, func(t *testing.T, mode confMode) {
		dims, ppn, nodes := [3]int{16, 16, 16}, 4, 1024
		if testing.Short() || mode != confClean {
			dims, nodes = [3]int{4, 4, 4}, 64
		}
		n := nodes * ppn
		cap := dims[0] * dims[1] * dims[2]
		stride := cap / nodes // occupy every stride-th torus position
		reps := scaleReps(t)
		if n >= 4096 {
			reps = 1 // one 4096-rank world is ~7s; repetition adds little
		}
		for rep := 0; rep < reps; rep++ {
			nodeOf := make([]int, n)
			for i := range nodeOf {
				nodeOf[i] = (i / ppn) * stride
			}
			size := 64 * 1024
			root := (rep * 977) % n
			ms, record, _ := recordOn()
			runConfTorus(t, nodeOf, dims, mode, int64(rep+1), func(c *mpi.Comm) {
				me := c.Rank()
				buf := make([]byte, size)
				if me == root {
					confFill(buf, uint64(rep))
				}
				Run(c, IbcastTorus(c, root, mpi.Bytes(buf), 32*1024))
				want := make([]byte, size)
				confFill(want, uint64(rep))
				if !bytes.Equal(buf, want) {
					record(me, "broadcast payload corrupt")
				}
			})
			if len(*ms) > 0 {
				t.Fatalf("rep %d (n=%d dims=%v root=%d mode=%v): rank %d: %s",
					rep, n, dims, root, mode, (*ms)[0].rank, (*ms)[0].err)
			}
		}
	})
}

func TestScaleConformanceIbarrierTree(t *testing.T) {
	confModes(t, func(t *testing.T, mode confMode) {
		n := scaleRanks(t, 2048)
		if mode != confClean {
			n = 256
		}
		for rep := 0; rep < scaleReps(t); rep++ {
			var mu sync.Mutex
			var maxBefore float64
			minAfter := 1e18
			runConf(t, n, mode, int64(rep+1), func(c *mpi.Comm) {
				c.Compute(1e-6 * float64(c.Rank()+1))
				mu.Lock()
				if c.Now() > maxBefore {
					maxBefore = c.Now()
				}
				mu.Unlock()
				Run(c, IbarrierTree(n, c.Rank()))
				mu.Lock()
				if c.Now() < minAfter {
					minAfter = c.Now()
				}
				mu.Unlock()
			})
			if minAfter < maxBefore {
				t.Fatalf("rep %d (n=%d mode=%v): a rank left the tree barrier at %g before the last arrival %g",
					rep, n, mode, minAfter, maxBefore)
			}
		}
	})
}
