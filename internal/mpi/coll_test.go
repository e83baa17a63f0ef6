package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		var minAfter, maxBefore float64
		minAfter = 1e18
		runProg(t, n, nil, func(c *Comm) {
			c.Compute(float64(c.Rank()+1) * 0.01) // staggered arrival
			if c.Now() > maxBefore {
				maxBefore = c.Now()
			}
			c.Barrier()
			if c.Now() < minAfter {
				minAfter = c.Now()
			}
		})
		if minAfter < maxBefore {
			t.Fatalf("n=%d: rank left barrier at %g before last arrival %g", n, minAfter, maxBefore)
		}
	}
}

func TestBcastDeliversData(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < n; root += 2 {
			payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
			got := make([][]byte, n)
			runProg(t, n, nil, func(c *Comm) {
				buf := make([]byte, len(payload))
				if c.Rank() == root {
					copy(buf, payload)
				}
				c.Bcast(root, Bytes(buf))
				got[c.Rank()] = buf
			})
			for r := 0; r < n; r++ {
				if string(got[r]) != string(payload) {
					t.Fatalf("n=%d root=%d: rank %d got %v", n, root, r, got[r])
				}
			}
		}
	}
}

func TestBcastLargeRendezvous(t *testing.T) {
	payload := make([]byte, 100*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	n := 6
	got := make([][]byte, n)
	runProg(t, n, nil, func(c *Comm) {
		buf := make([]byte, len(payload))
		if c.Rank() == 0 {
			copy(buf, payload)
		}
		c.Bcast(0, Bytes(buf))
		got[c.Rank()] = buf
	})
	for r := 0; r < n; r++ {
		for i := range payload {
			if got[r][i] != payload[i] {
				t.Fatalf("rank %d corrupted at byte %d", r, i)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 9} {
		var result []float64
		runProg(t, n, nil, func(c *Comm) {
			vals := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
			send := Float64sToBytes(vals)
			recv := make([]byte, len(send))
			c.Reduce(0, Bytes(send), Bytes(recv), SumFloat64)
			if c.Rank() == 0 {
				result = BytesToFloat64s(recv)
			}
		})
		wantSum := 0.0
		wantSq := 0.0
		for r := 0; r < n; r++ {
			wantSum += float64(r)
			wantSq += float64(r * r)
		}
		if result[0] != wantSum || result[1] != float64(n) || result[2] != wantSq {
			t.Fatalf("n=%d: reduce got %v, want [%g %d %g]", n, result, wantSum, n, wantSq)
		}
	}
}

func TestAllreduce(t *testing.T) {
	n := 6
	results := make([][]float64, n)
	runProg(t, n, nil, func(c *Comm) {
		send := Float64sToBytes([]float64{float64(c.Rank() + 1)})
		recv := make([]byte, len(send))
		c.Allreduce(Bytes(send), Bytes(recv), SumFloat64)
		results[c.Rank()] = BytesToFloat64s(recv)
	})
	want := float64(n * (n + 1) / 2)
	for r := 0; r < n; r++ {
		if results[r][0] != want {
			t.Fatalf("rank %d allreduce = %v, want %g", r, results[r], want)
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		results := make([][]byte, n)
		runProg(t, n, nil, func(c *Comm) {
			mine := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
			out := make([]byte, 2*n)
			c.Allgather(Bytes(mine), Bytes(out))
			results[c.Rank()] = out
		})
		for r := 0; r < n; r++ {
			for i := 0; i < n; i++ {
				if results[r][2*i] != byte(i) || results[r][2*i+1] != byte(2*i) {
					t.Fatalf("n=%d rank %d: allgather = %v", n, r, results[r])
				}
			}
		}
	}
}

func alltoallPattern(t *testing.T, n, blockSize int) {
	t.Helper()
	results := make([][]byte, n)
	runProg(t, n, nil, func(c *Comm) {
		send := make([]byte, n*blockSize)
		for p := 0; p < n; p++ {
			for i := 0; i < blockSize; i++ {
				send[p*blockSize+i] = byte(c.Rank()*31 + p*7)
			}
		}
		recv := make([]byte, n*blockSize)
		c.Alltoall(Bytes(send), Bytes(recv))
		results[c.Rank()] = recv
	})
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			want := byte(p*31 + r*7)
			for i := 0; i < blockSize; i++ {
				if results[r][p*blockSize+i] != want {
					t.Fatalf("n=%d bs=%d: rank %d block %d byte %d = %d, want %d",
						n, blockSize, r, p, i, results[r][p*blockSize+i], want)
				}
			}
		}
	}
}

func TestAlltoallSmallLinear(t *testing.T) {
	alltoallPattern(t, 6, 64) // below pairwiseThreshold -> linear
}

func TestAlltoallLargePairwise(t *testing.T) {
	alltoallPattern(t, 5, 8192) // above pairwiseThreshold -> pairwise
}

func TestAlltoallRendezvousSized(t *testing.T) {
	alltoallPattern(t, 4, 20*1024) // above eager limit -> rendezvous pairwise
}

func TestGatherScatter(t *testing.T) {
	n := 7
	var gathered []byte
	scattered := make([][]byte, n)
	runProg(t, n, nil, func(c *Comm) {
		mine := []byte{byte(c.Rank() + 100)}
		var all []byte
		if c.Rank() == 2 {
			all = make([]byte, n)
		}
		c.Gather(2, Bytes(mine), Bytes(all))
		if c.Rank() == 2 {
			gathered = all
		}
		out := make([]byte, 1)
		c.Scatter(2, Bytes(all), Bytes(out))
		scattered[c.Rank()] = out
	})
	for i := 0; i < n; i++ {
		if gathered[i] != byte(i+100) {
			t.Fatalf("gather: %v", gathered)
		}
		if scattered[i][0] != byte(i+100) {
			t.Fatalf("scatter: rank %d got %v", i, scattered[i])
		}
	}
}

// Property: Alltoall is an involution-like permutation: applying it with
// blocks labeled (src,dst) yields blocks labeled (dst,src) everywhere, for
// random communicator sizes and block sizes straddling the linear/pairwise
// and eager/rendezvous thresholds.
func TestAlltoallPermutationProperty(t *testing.T) {
	f := func(n8, bs16 uint8) bool {
		n := int(n8%7) + 2
		blockSize := (int(bs16) + 1) * 200 // 200 .. 51200 bytes
		ok := true
		results := make([][]byte, n)
		runProg(t, n, nil, func(c *Comm) {
			send := make([]byte, n*blockSize)
			for p := 0; p < n; p++ {
				send[p*blockSize] = byte(c.Rank())
				send[p*blockSize+1] = byte(p)
			}
			recv := make([]byte, n*blockSize)
			c.Alltoall(Bytes(send), Bytes(recv))
			results[c.Rank()] = recv
		})
		for r := 0; r < n && ok; r++ {
			for p := 0; p < n; p++ {
				if results[r][p*blockSize] != byte(p) || results[r][p*blockSize+1] != byte(r) {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bcast delivers the root payload for random sizes and roots.
func TestBcastProperty(t *testing.T) {
	f := func(n8, root8 uint8, size16 uint16) bool {
		n := int(n8%9) + 1
		root := int(root8) % n
		size := int(size16%40000) + 1
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		ok := true
		runProg(t, n, nil, func(c *Comm) {
			buf := make([]byte, size)
			if c.Rank() == root {
				copy(buf, payload)
			}
			c.Bcast(root, Bytes(buf))
			for i := range buf {
				if buf[i] != payload[i] {
					ok = false
					break
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}
