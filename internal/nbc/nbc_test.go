package nbc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

func testParams(mutate func(*netmodel.Params)) netmodel.Params {
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
	return p
}

func runProg(t testing.TB, n int, mutate func(*netmodel.Params), prog func(c *mpi.Comm)) float64 {
	t.Helper()
	eng := sim.NewEngine(1)
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	net, err := netmodel.New(eng, testParams(mutate), nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld([]*netmodel.Network{net}, nil, n, mpi.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w.Start(prog)
	return eng.Run()
}

func TestIbcastAllVariantsDeliver(t *testing.T) {
	const n = 9
	payload := make([]byte, 300*1024) // spans multiple segments at every segsize
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	for _, fanout := range DefaultFanouts {
		for _, segSize := range DefaultSegSizes {
			name := fmt.Sprintf("%s/seg%dk", FanoutName(fanout), segSize/1024)
			t.Run(name, func(t *testing.T) {
				got := make([][]byte, n)
				runProg(t, n, nil, func(c *mpi.Comm) {
					buf := make([]byte, len(payload))
					if c.Rank() == 0 {
						copy(buf, payload)
					}
					Run(c, Ibcast(n, c.Rank(), 0, mpi.Bytes(buf), fanout, segSize))
					got[c.Rank()] = buf
				})
				for r := 0; r < n; r++ {
					for i := range payload {
						if got[r][i] != payload[i] {
							t.Fatalf("rank %d wrong at byte %d", r, i)
						}
					}
				}
			})
		}
	}
}

func TestIbcastNonzeroRoot(t *testing.T) {
	const n = 7
	const root = 3
	payload := []byte("hello-nbc-bcast")
	got := make([][]byte, n)
	runProg(t, n, nil, func(c *mpi.Comm) {
		buf := make([]byte, len(payload))
		if c.Rank() == root {
			copy(buf, payload)
		}
		Run(c, Ibcast(n, c.Rank(), root, mpi.Bytes(buf), 2, 32*1024))
		got[c.Rank()] = buf
	})
	for r := 0; r < n; r++ {
		if string(got[r]) != string(payload) {
			t.Fatalf("rank %d got %q", r, got[r])
		}
	}
}

func checkAlltoall(t *testing.T, n, bs int, algo AlltoallAlgo) {
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
		Run(c, Ialltoall(n, me, mpi.Bytes(send), mpi.Bytes(recv), algo))
		results[me] = recv
	})
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			for i := 0; i < bs; i++ {
				want := byte(p*37 + r*11 + i)
				if results[r][p*bs+i] != want {
					t.Fatalf("algo=%v n=%d bs=%d: rank %d block %d byte %d = %d want %d",
						algo, n, bs, r, p, i, results[r][p*bs+i], want)
				}
			}
		}
	}
}

func TestIalltoallCorrectness(t *testing.T) {
	for _, algo := range DefaultAlltoallAlgos {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 9} {
			for _, bs := range []int{16, 1024, 20 * 1024} { // eager and rendezvous
				t.Run(fmt.Sprintf("%v/n%d/bs%d", algo, n, bs), func(t *testing.T) {
					checkAlltoall(t, n, bs, algo)
				})
			}
		}
	}
}

func TestIallgatherCorrectness(t *testing.T) {
	for _, algo := range []AllgatherAlgo{AllgatherRing, AllgatherLinear} {
		for _, n := range []int{1, 2, 5, 8} {
			t.Run(fmt.Sprintf("%v/n%d", algo, n), func(t *testing.T) {
				bs := 512
				results := make([][]byte, n)
				runProg(t, n, nil, func(c *mpi.Comm) {
					me := c.Rank()
					mine := make([]byte, bs)
					for i := range mine {
						mine[i] = byte(me*13 + i)
					}
					recv := make([]byte, n*bs)
					Run(c, Iallgather(n, me, mpi.Bytes(mine), mpi.Bytes(recv), algo))
					results[me] = recv
				})
				for r := 0; r < n; r++ {
					for p := 0; p < n; p++ {
						for i := 0; i < bs; i++ {
							if results[r][p*bs+i] != byte(p*13+i) {
								t.Fatalf("rank %d block %d wrong", r, p)
							}
						}
					}
				}
			})
		}
	}
}

func TestIreduceCorrectness(t *testing.T) {
	for _, algo := range []ReduceAlgo{ReduceBinomial, ReduceChain} {
		for _, n := range []int{1, 2, 3, 6, 8} {
			for root := 0; root < n; root += 3 {
				t.Run(fmt.Sprintf("%v/n%d/root%d", algo, n, root), func(t *testing.T) {
					var result []float64
					runProg(t, n, nil, func(c *mpi.Comm) {
						me := c.Rank()
						send := mpi.Float64sToBytes([]float64{float64(me), float64(me * me)})
						recv := make([]byte, len(send))
						Run(c, Ireduce(n, me, root, mpi.Bytes(send), mpi.Bytes(recv), mpi.SumFloat64, algo))
						if me == root {
							result = mpi.BytesToFloat64s(recv)
						}
					})
					var ws, wq float64
					for r := 0; r < n; r++ {
						ws += float64(r)
						wq += float64(r * r)
					}
					if result[0] != ws || result[1] != wq {
						t.Fatalf("reduce got %v want [%g %g]", result, ws, wq)
					}
				})
			}
		}
	}
}

func TestIreducePersistentReexecution(t *testing.T) {
	// The same schedule must be executable repeatedly (persistent request).
	const n = 4
	results := make([]float64, 3)
	runProg(t, n, nil, func(c *mpi.Comm) {
		me := c.Rank()
		send := mpi.Float64sToBytes([]float64{1})
		recv := make([]byte, len(send))
		sched := Ireduce(n, me, 0, mpi.Bytes(send), mpi.Bytes(recv), mpi.SumFloat64, ReduceBinomial)
		for it := 0; it < 3; it++ {
			Run(c, sched)
			if me == 0 {
				results[it] = mpi.BytesToFloat64s(recv)[0]
			}
		}
	})
	for it, v := range results {
		if v != n {
			t.Fatalf("iteration %d: reduce = %g, want %d", it, v, n)
		}
	}
}

func TestIbarrierSynchronizes(t *testing.T) {
	const n = 8
	var maxBefore, minAfter float64
	minAfter = 1e18
	runProg(t, n, nil, func(c *mpi.Comm) {
		c.Compute(float64(c.Rank()+1) * 0.001)
		if c.Now() > maxBefore {
			maxBefore = c.Now()
		}
		Run(c, Ibarrier(n, c.Rank()))
		if c.Now() < minAfter {
			minAfter = c.Now()
		}
	})
	if minAfter < maxBefore {
		t.Fatalf("rank left barrier at %g before last arrival %g", minAfter, maxBefore)
	}
}

func TestScheduleDoesNotAdvanceWithoutProgress(t *testing.T) {
	// Pairwise has n-1 communication rounds; with zero progress calls during
	// compute, all rounds execute inside Wait, so the sender side completes
	// only after compute.
	const n = 4
	const computeT = 0.1
	var doneAt float64
	runProg(t, n, nil, func(c *mpi.Comm) {
		h := Start(c, Ialltoall(n, c.Rank(), mpi.Virtual(n*64*1024), mpi.Virtual(n*64*1024), AlgoPairwise))
		c.Compute(computeT)
		h.Wait()
		if c.Rank() == 0 {
			doneAt = c.Now()
		}
	})
	if doneAt < computeT {
		t.Fatalf("completed at %g before compute ended", doneAt)
	}
}

func TestProgressAdvancesRounds(t *testing.T) {
	// With frequent progress calls, the pairwise rounds interleave with
	// compute, so total time is much closer to compute-only than the
	// no-progress run.
	const n = 4
	const computeT = 0.1
	run := func(progressCalls int) float64 {
		var doneAt float64
		runProg(t, n, nil, func(c *mpi.Comm) {
			h := Start(c, Ialltoall(n, c.Rank(), mpi.Virtual(n*256*1024), mpi.Virtual(n*256*1024), AlgoPairwise))
			for i := 0; i < progressCalls; i++ {
				c.Compute(computeT / float64(progressCalls))
				h.Progress()
			}
			h.Wait()
			if c.Rank() == 0 && c.Now() > doneAt {
				doneAt = c.Now()
			}
		})
		return doneAt
	}
	none := run(1) // single progress call right before wait
	many := run(32)
	if many >= none {
		t.Fatalf("frequent progress (%g) should beat rare progress (%g) for pairwise", many, none)
	}
}

func TestHandleDoneIdempotent(t *testing.T) {
	runProg(t, 2, nil, func(c *mpi.Comm) {
		h := Start(c, Ibarrier(2, c.Rank()))
		h.Wait()
		if !h.done {
			t.Error("handle not done after wait")
		}
		if !h.Progress() {
			t.Error("progress after done should report done")
		}
		h.Wait() // must not hang
	})
}

func TestConcurrentHandlesIsolated(t *testing.T) {
	// Two all-to-alls in flight simultaneously (window=2) must not mix data.
	const n = 4
	const bs = 2048
	resA := make([][]byte, n)
	resB := make([][]byte, n)
	runProg(t, n, nil, func(c *mpi.Comm) {
		me := c.Rank()
		mk := func(base byte) []byte {
			b := make([]byte, n*bs)
			for p := 0; p < n; p++ {
				for i := 0; i < bs; i++ {
					b[p*bs+i] = base + byte(me*17+p*5)
				}
			}
			return b
		}
		sa, sb := mk(0), mk(128)
		ra, rb := make([]byte, n*bs), make([]byte, n*bs)
		ha := Start(c, Ialltoall(n, me, mpi.Bytes(sa), mpi.Bytes(ra), AlgoLinear))
		hb := Start(c, Ialltoall(n, me, mpi.Bytes(sb), mpi.Bytes(rb), AlgoPairwise))
		hb.Wait()
		ha.Wait()
		resA[me], resB[me] = ra, rb
	})
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			if resA[r][p*bs] != byte(p*17+r*5) {
				t.Fatalf("A mixed: rank %d block %d", r, p)
			}
			if resB[r][p*bs] != byte(128+byte(p*17+r*5)) {
				t.Fatalf("B mixed: rank %d block %d", r, p)
			}
		}
	}
}

// Property: all three alltoall algorithms produce identical results for
// random (n, blockSize).
func TestAlltoallAlgosEquivalentProperty(t *testing.T) {
	f := func(n8 uint8, bs16 uint16) bool {
		n := int(n8%6) + 2
		bs := int(bs16%4096) + 8
		want := make([][]byte, n)
		for _, algo := range DefaultAlltoallAlgos {
			results := make([][]byte, n)
			runProg(t, n, nil, func(c *mpi.Comm) {
				me := c.Rank()
				send := make([]byte, n*bs)
				for i := range send {
					send[i] = byte(me ^ i)
				}
				recv := make([]byte, n*bs)
				Run(c, Ialltoall(n, me, mpi.Bytes(send), mpi.Bytes(recv), algo))
				results[me] = recv
			})
			if want[0] == nil {
				want = results
				continue
			}
			for r := 0; r < n; r++ {
				for i := range want[r] {
					if results[r][i] != want[r][i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Ibcast delivers for random tree shape, segment size, size, root.
func TestIbcastProperty(t *testing.T) {
	f := func(n8, f8, root8 uint8, sz uint32) bool {
		n := int(n8%10) + 1
		fanout := DefaultFanouts[int(f8)%len(DefaultFanouts)]
		segSize := DefaultSegSizes[int(f8/16)%len(DefaultSegSizes)]
		root := int(root8) % n
		size := int(sz%200_000) + 1
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		ok := true
		runProg(t, n, nil, func(c *mpi.Comm) {
			buf := make([]byte, size)
			if c.Rank() == root {
				copy(buf, payload)
			}
			Run(c, Ibcast(n, c.Rank(), root, mpi.Bytes(buf), fanout, segSize))
			for i := range buf {
				if buf[i] != payload[i] {
					ok = false
					break
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(37))}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundCounts(t *testing.T) {
	// Round structure is the lever behind the progress-call sensitivity;
	// pin it down.
	cases := []struct {
		sched *Schedule
		want  int
	}{
		{Ialltoall(8, 0, mpi.Virtual(8*1024), mpi.Virtual(8*1024), AlgoLinear), 1},
		{Ialltoall(8, 0, mpi.Virtual(8*1024), mpi.Virtual(8*1024), AlgoPairwise), 8},        // self-copy + 7 exchanges
		{Ialltoall(8, 3, mpi.Virtual(8*1024), mpi.Virtual(8*1024), AlgoBruck), 1 + 3*2 + 1}, // rot + 3*(exchange+unpack) + final
		{Ibarrier(8, 0), 3},
		{Ibcast(8, 0, 0, mpi.Virtual(100*1024), 0, 32*1024), 4}, // root: 4 segments
	}
	for i, tc := range cases {
		if got := len(tc.sched.Rounds); got != tc.want {
			t.Errorf("case %d (%s): rounds = %d, want %d", i, tc.sched.Name, got, tc.want)
		}
	}
	// A linear all-to-all is three entries on every rank, whatever the comm
	// size: the self copy and one run each of receives and sends.
	const n = 384
	for me := 0; me < n; me++ {
		if got := opCount(Ialltoall(n, me, mpi.Virtual(n*1024), mpi.Virtual(n*1024), AlgoLinear)); got != 3 {
			t.Fatalf("rank %d of a %d-rank linear all-to-all has %d entries, want 3", me, n, got)
		}
	}
}

// TestRoundsShareOneOpArray pins the layout of the schedules whose rounds
// grow with the rank or segment count (roundBuf): every round is a capped
// slice that starts where the round before it ends, so a schedule's ops are
// one array that an append to a round cannot write through, and building a
// schedule makes as many allocations at 256 ranks as at 16, so nothing is
// grown on the way.
func TestRoundsShareOneOpArray(t *testing.T) {
	v := func(n int) mpi.Buf { return mpi.Virtual(n * 64) }
	// Ibcast's rounds, rooted at 0, without the schedule name: fmt's buffer
	// pool drops buffers at random under the race detector, which would make
	// the allocation counts below vary.
	pipelined := func(fanout int) func(n, me int) *Schedule {
		return func(n, me int) *Schedule {
			parent, children := bcastTree(n, me, fanout)
			return pipelined("", n, v(2048), 32*1024, parent, children)
		}
	}
	builders := []struct {
		name  string
		build func(n, me int) *Schedule
	}{
		{"ialltoall-linear", func(n, me int) *Schedule { return Ialltoall(n, me, v(n), v(n), AlgoLinear) }},
		{"ialltoall-pairwise", func(n, me int) *Schedule { return Ialltoall(n, me, v(n), v(n), AlgoPairwise) }},
		{"ialltoall-linear-put", func(n, me int) *Schedule { return IalltoallLinearPut(n, me, v(n), v(n), nil) }},
		{"ialltoall-pairwise-put", func(n, me int) *Schedule { return IalltoallPairwisePut(n, me, v(n), v(n), nil) }},
		{"iallgather-linear", func(n, me int) *Schedule { return Iallgather(n, me, v(1), v(n), AllgatherLinear) }},
		{"iallgather-ring", func(n, me int) *Schedule { return Iallgather(n, me, v(1), v(n), AllgatherRing) }},
		{"ibarrier-dissemination", Ibarrier},
		{"ibarrier-tree", IbarrierTree},
		{"ibcast-linear", pipelined(0)},
		{"ibcast-binomial", pipelined(FanoutBinomial)},
		{"ibcast-3-ary", pipelined(3)},
	}
	opSize := unsafe.Sizeof(Op{})
	for _, b := range builders {
		for _, n := range []int{1, 2, 5, 16, 256} {
			for _, me := range []int{0, 1, n / 2, n - 1} {
				if me >= n {
					continue
				}
				rounds := b.build(n, me).Rounds
				for i, r := range rounds {
					if len(r) == 0 || cap(r) != len(r) {
						t.Fatalf("%s n=%d me=%d: round %d has %d ops and capacity %d", b.name, n, me, i, len(r), cap(r))
					}
					if i == 0 {
						continue
					}
					prev := rounds[i-1]
					if unsafe.Pointer(&r[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*opSize) {
						t.Fatalf("%s n=%d me=%d: round %d does not start where round %d ends", b.name, n, me, i, i-1)
					}
				}
			}
		}
		small := testing.AllocsPerRun(10, func() { b.build(16, 0) })
		large := testing.AllocsPerRun(10, func() { b.build(256, 0) })
		if small != large {
			t.Errorf("%s: building rank 0's schedule takes %v allocations at 16 ranks and %v at 256", b.name, small, large)
		}
	}
}

// TestOpPacking: an entry gives back what a builder put in at each field's
// extreme — the last tag offset of the stride, an offset past it that
// saturates (so the executor refuses it, TestTagOffOutsideStrideRefused), a
// run of 16 383 posts (every peer of a 16K-rank world) and byte counts of
// MaxPayload, 2^31-1 — and refuses a byte count past that.
func TestOpPacking(t *testing.T) {
	if tagSat < mpi.NBTagStride {
		t.Fatalf("the saturated tag offset %d lies inside the %d-wide stride", tagSat, mpi.NBTagStride)
	}
	for _, kind := range []OpKind{OpSend, OpRecv, OpPut} {
		for _, tc := range []struct{ tag, want int }{
			{0, 0},
			{mpi.NBTagStride - 1, mpi.NBTagStride - 1},
			{-1, tagSat},
			{3 - 1<<28, tagSat}, // would wrap to 3
			{math.MaxInt, tagSat},
		} {
			for _, op := range []Op{
				postOne(kind, tc.tag, 16383, 7, MaxPayload, MaxPayload),
				postRun(kind, tc.tag, 16383, 16382, 16383, 7, MaxPayload, MaxPayload),
			} {
				same, count, step := true, 1, 0
				if op.Count != 1 {
					same, count, step = false, 16383, 16382
				}
				if op.Kind() != kind || op.SameBlock() != same || op.TagOff() != tc.want ||
					op.Peer != 16383 || int(op.Count) != count || int(op.Step) != step || op.Ref != 7 ||
					op.Off != MaxPayload || op.Len != MaxPayload {
					t.Errorf("kind %d, tag offset %d: entry reads back kind %d, same block %v, tag offset %d, peer %d, count %d, step %d, ref %d, off %d, len %d",
						kind, tc.tag, op.Kind(), op.SameBlock(), op.TagOff(), op.Peer, op.Count, op.Step, op.Ref, op.Off, op.Len)
				}
			}
		}
	}
	b := newBuilder("local", mpi.Buf{}, 2, 1)
	b.local(MaxPayload, nil)
	b.add(awaitPuts(MaxPayload))
	for i, op := range b.done().Rounds[0] {
		if want := []OpKind{OpLocal, OpAwaitPuts}[i]; op.Kind() != want || op.TagOff() != 0 || op.N != MaxPayload {
			t.Errorf("entry %d reads back kind %d, tag offset %d, N %d; want kind %d, 0 and %d", i, op.Kind(), op.TagOff(), op.N, want, MaxPayload)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "2 GiB") {
			t.Errorf("a %d-byte post: recovered %v, want the 2 GiB refusal", int64(MaxPayload)+1, r)
		}
	}()
	postOne(OpSend, 0, 1, -1, 0, int(int64(MaxPayload)+1))
}

// TestIbcastNames: a segment of whole KiB keeps the name it always had, and
// any other size is spelled in bytes, so no two sizes share a name (512 and
// 768 bytes were both "seg0k", and 1536 was "seg1k" like 1024). The names of
// the paper's set cost no allocation: every rank's builder asks for one.
func TestIbcastNames(t *testing.T) {
	for _, tc := range []struct {
		fanout, seg int
		want        string
	}{
		{FanoutBinomial, 32 << 10, "ibcast-binomial-seg32k"},
		{0, 64 << 10, "ibcast-linear-seg64k"},
		{FanoutTorus, 128 << 10, "ibcast-torus-seg128k"},
		{6, 8 << 10, "ibcast-6-ary-seg8k"},
		{FanoutBinomial, 1 << 30, "ibcast-binomial-seg1048576k"},
		{1, 1 << 10, "ibcast-chain-seg1k"},
		{2, 512, "ibcast-2-ary-seg512"},
		{2, 768, "ibcast-2-ary-seg768"},
		{1, 1536, "ibcast-chain-seg1536"},
	} {
		if got := IbcastName(tc.fanout, tc.seg); got != tc.want {
			t.Errorf("IbcastName(%d, %d) = %q, want %q", tc.fanout, tc.seg, got, tc.want)
		}
	}
	seen := map[string]int{}
	for seg := 1; seg <= 16<<10; seg++ {
		name := IbcastName(FanoutBinomial, seg)
		if prev, ok := seen[name]; ok {
			t.Fatalf("segments of %d and %d bytes are both %q", prev, seg, name)
		}
		seen[name] = seg
	}
	fanouts := append([]int{FanoutTorus}, DefaultFanouts...)
	allocs := testing.AllocsPerRun(10, func() {
		for _, fanout := range fanouts {
			for _, seg := range DefaultSegSizes {
				IbcastName(fanout, seg)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("naming the paper's set takes %v allocations, want 0", allocs)
	}
}
