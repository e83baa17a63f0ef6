package mpi

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestMatchingOrderProperty drives the indexed matcher and the linear-scan
// reference (matchref.go) in lockstep over random post/arrive interleavings
// with wildcard receives, multiple contexts, and both protocol classes.
// Every decision — which receive an arrival matches, which unexpected
// envelope a post consumes, and all three modeled-cost counters — must agree
// at every step.
func TestMatchingOrderProperty(t *testing.T) {
	const seeds = 50
	const steps = 2000
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var m matcher
		var ref refMatcher
		reqID := map[*Request]int{}
		envID := map[*envelope]int{}
		nextID := 0
		for step := 0; step < steps; step++ {
			ctx := 1 + rng.Intn(2)
			// Receive-side filters may be wildcards; arrivals are concrete.
			src := rng.Intn(4)
			tag := rng.Intn(6)
			fsrc, ftag := src, tag
			if rng.Intn(5) == 0 {
				fsrc = AnySource
			}
			if rng.Intn(5) == 0 {
				ftag = AnyTag
			}
			if rng.Intn(2) == 0 { // post a receive
				id := nextID
				nextID++
				gotEnv, gotQueue := -1, refQueueNone
				if env := m.eager.take(ctx, fsrc, ftag); env != nil {
					gotEnv, gotQueue = envID[env], refQueueEager
				} else if env := m.rts.take(ctx, fsrc, ftag); env != nil {
					gotEnv, gotQueue = envID[env], refQueueRTS
				} else {
					q := &Request{peer: fsrc, tag: ftag, ctx: ctx}
					reqID[q] = id
					m.post(q)
				}
				wantEnv, wantQueue := ref.post(ctx, fsrc, ftag, id)
				if gotEnv != wantEnv || gotQueue != wantQueue {
					t.Fatalf("seed %d step %d: post(ctx=%d src=%d tag=%d) consumed env %d (queue %d), reference says env %d (queue %d)",
						seed, step, ctx, fsrc, ftag, gotEnv, gotQueue, wantEnv, wantQueue)
				}
			} else { // an envelope arrives
				id := nextID
				nextID++
				rts := rng.Intn(2) == 1
				got := -1
				if q := m.matchArrival(ctx, src, tag); q != nil {
					got = reqID[q]
				} else {
					env := &envelope{src: src, tag: tag, ctx: ctx}
					envID[env] = id
					if rts {
						m.rts.push(env)
					} else {
						m.eager.push(env)
					}
				}
				want := ref.arrive(ctx, src, tag, id, rts)
				if got != want {
					t.Fatalf("seed %d step %d: arrival(ctx=%d src=%d tag=%d rts=%v) matched recv %d, reference says %d",
						seed, step, ctx, src, tag, rts, got, want)
				}
			}
			if m.postedCount != len(ref.posted) || m.eager.count != len(ref.eager) || m.rts.count != len(ref.rts) {
				t.Fatalf("seed %d step %d: modeled-cost counters (%d posted, %d eager, %d rts) diverge from reference (%d, %d, %d)",
					seed, step, m.postedCount, m.eager.count, m.rts.count,
					len(ref.posted), len(ref.eager), len(ref.rts))
			}
		}
	}
}

// TestMatcherSteadyStateAllocs pins the matching hot path at zero
// steady-state allocations: once bucket lists and free lists are warm,
// match-and-repost cycles touch only pooled records. Three more cycles cross
// shallow both ways every time: wildcard posts, the unexpected queue's
// push/take cycle, and the posted chain's move into its map and back. Each
// checks that it really reached map mode and drained back to the chain, so a
// changed threshold cannot turn it into a chain-only cycle.
func TestMatcherSteadyStateAllocs(t *testing.T) {
	for _, k := range []int{1, 64, 1024} {
		mb := NewMatchBench(k, true)
		mb.RunCycles(4 * k)
		if n := testing.AllocsPerRun(100, func() { mb.RunCycles(8) }); n != 0 {
			t.Errorf("k=%d: %v allocs per 8 match cycles, want 0", k, n)
		}
	}

	const depth = 2 * shallow
	var m matcher
	reqs := make([]*Request, depth)
	for i := range reqs {
		reqs[i] = &Request{ctx: 1}
	}
	envs := make([]*envelope, depth)
	for i := range envs {
		envs[i] = &envelope{ctx: 1, src: i % 3, tag: i}
	}
	crossed := func(mapped, drained bool) {
		if !mapped || !drained {
			t.Fatalf("cycle did not cross shallow both ways (map mode reached %v, chain regained %v)", mapped, drained)
		}
	}
	// postAll posts every receive, source i%3 and tag i unless wildcarded
	// by the filters, then matches each with a concrete arrival in posted
	// order.
	postAll := func(wild func(i int) (src, tag int)) {
		for i, q := range reqs {
			q.peer, q.tag = wild(i)
			m.post(q)
		}
		mapped := len(m.posted) > 0
		for i, q := range reqs {
			if got := m.matchArrival(1, i%3, i); got != q {
				t.Fatalf("arrival %d matched %p, want %p", i, got, q)
			}
		}
		crossed(mapped, len(m.posted) == 0 && m.postedCount == 0)
	}
	cycles := []struct {
		name  string
		cycle func()
	}{
		{"chain to map to chain", func() {
			postAll(func(i int) (int, int) { return i % 3, i })
		}},
		{"wildcard posts", func() {
			postAll(func(i int) (int, int) {
				switch i % 4 {
				case 0:
					return AnySource, i
				case 1:
					return i % 3, AnyTag
				case 2:
					return AnySource, AnyTag
				}
				return i % 3, i
			})
		}},
		{"unexpected push and take", func() {
			for _, env := range envs {
				m.eager.push(env)
			}
			mapped := len(m.eager.buckets) > 0
			for i, env := range envs {
				src, tag := env.src, env.tag
				if i%4 == 1 {
					src = AnySource
				} else if i%4 == 3 {
					tag = AnyTag
				}
				if got := m.eager.take(1, src, tag); got != env {
					t.Fatalf("take %d returned %p, want %p", i, got, env)
				}
			}
			crossed(mapped, len(m.eager.buckets) == 0 && m.eager.count == 0)
		}},
	}
	for _, c := range cycles {
		c.cycle() // make the map and its free lists once
		if n := testing.AllocsPerRun(50, c.cycle); n != 0 {
			t.Errorf("%s: %v allocs per cycle, want 0", c.name, n)
		}
	}
}

// TestFreshNBTagWindow pins the non-blocking tag layout: stride alignment,
// disjointness from the blocking-collective range, uniqueness within one
// window, and exact recycling at the wraparound point.
func TestFreshNBTagWindow(t *testing.T) {
	c := &Comm{}
	seen := make(map[int]bool, nbTagWindow)
	first := c.FreshNBTag()
	tag := first
	for i := 0; i < nbTagWindow; i++ {
		if i > 0 {
			tag = c.FreshNBTag()
		}
		if tag%nbTagStride != 0 {
			t.Fatalf("tag %d not aligned to the %d-wide stride", tag, nbTagStride)
		}
		if tag < nbTagBase+nbTagStride || tag > nbTagBase+nbTagWindow*nbTagStride {
			t.Fatalf("tag %d outside the NB window [%d, %d]", tag, nbTagBase+nbTagStride, nbTagBase+nbTagWindow*nbTagStride)
		}
		if tag <= collTagBase+collTagWindow {
			t.Fatalf("tag %d collides with the blocking-collective range", tag)
		}
		if seen[tag] {
			t.Fatalf("tag %d repeated within one window (iteration %d)", tag, i)
		}
		seen[tag] = true
	}
	if wrapped := c.FreshNBTag(); wrapped != first {
		t.Fatalf("after %d operations the base tag is %d, want wraparound to the first tag %d", nbTagWindow, wrapped, first)
	}
}

// TestCollTagWindow pins the blocking-collective tag range analogously.
func TestCollTagWindow(t *testing.T) {
	c := &Comm{}
	first := c.nextCollTag()
	if first != collTagBase+1 {
		t.Fatalf("first collective tag = %d, want %d", first, collTagBase+1)
	}
	last := first
	for i := 1; i < collTagWindow; i++ {
		last = c.nextCollTag()
	}
	if last != collTagBase+collTagWindow {
		t.Fatalf("last tag of the window = %d, want %d", last, collTagBase+collTagWindow)
	}
	if last >= nbTagBase {
		t.Fatalf("collective range reaches %d, colliding with the NB base %d", last, nbTagBase)
	}
	if wrapped := c.nextCollTag(); wrapped != first {
		t.Fatalf("after %d operations the tag is %d, want wraparound to %d", collTagWindow, wrapped, first)
	}
}

// TestNBTagWraparoundMatching burns a full tag window between two exchanges
// on the same communicator: the recycled base tag must match cleanly because
// nothing from its previous life is still in flight.
func TestNBTagWraparoundMatching(t *testing.T) {
	runProg(t, 2, nil, func(c *Comm) {
		exchange := func() {
			tag := c.FreshNBTag()
			if c.Rank() == 0 {
				c.Send(1, tag, Virtual(64))
			} else {
				c.FreeRequests(c.Recv(0, tag, Virtual(64)))
			}
		}
		exchange()
		for i := 0; i < nbTagWindow-1; i++ {
			c.FreshNBTag()
		}
		exchange()
	})
}

// TestCompletedRequestsAreCollectable proves the matcher and notice queue
// drop all references to a matched receive: with the world still alive, a
// completed (never pool-freed) request must be garbage-collectable once the
// caller lets go. The pre-rewrite engine failed this — the append-based
// slice removal left a live pointer in the vacated tail slot.
func TestCompletedRequestsAreCollectable(t *testing.T) {
	eng, w := testWorld(t, 2, nil)
	collected := make(chan struct{})
	w.Start(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 9, Virtual(128))
		case 1:
			req := c.Recv(0, 9, Virtual(128))
			runtime.SetFinalizer(req, func(*Request) { close(collected) })
		}
	})
	eng.Run()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(w)
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("completed receive request never became collectable (a library queue still references it)")
		}
		time.Sleep(time.Millisecond)
	}
}

func benchMatch(b *testing.B, k int, indexed bool) {
	mb := NewMatchBench(k, indexed)
	mb.RunCycles(2 * k)
	b.ResetTimer()
	mb.RunCycles(b.N)
}

func BenchmarkMatchIndexed1(b *testing.B)    { benchMatch(b, 1, true) }
func BenchmarkMatchIndexed64(b *testing.B)   { benchMatch(b, 64, true) }
func BenchmarkMatchIndexed1024(b *testing.B) { benchMatch(b, 1024, true) }
func BenchmarkMatchLinear1(b *testing.B)     { benchMatch(b, 1, false) }
func BenchmarkMatchLinear64(b *testing.B)    { benchMatch(b, 64, false) }
func BenchmarkMatchLinear1024(b *testing.B)  { benchMatch(b, 1024, false) }

// TestMatchKeyBounds checks the packing instead of assuming it: comm.go's
// highest tag fits the tag field, and keys built from every field's extreme
// values, wildcards included, are pairwise distinct with wildcards packing
// as zero fields.
func TestMatchKeyBounds(t *testing.T) {
	if highest := nbTagBase + (nbTagWindow+1)*nbTagStride - 1; highest > maxTag {
		t.Fatalf("highest non-blocking tag %d exceeds the key's maxTag %d", highest, maxTag)
	}
	if keyOf(maxCtx, AnySource, AnyTag) != matchKey(maxCtx)<<(srcBits+tagBits) {
		t.Fatalf("wildcards do not pack as zero fields: %#x", keyOf(maxCtx, AnySource, AnyTag))
	}
	seen := map[matchKey][3]int{}
	for _, ctx := range []int{0, 1, maxCtx} {
		for _, src := range []int{AnySource, 0, 1, maxRanks - 1} {
			for _, tag := range []int{AnyTag, 0, 1, maxTag} {
				k := keyOf(ctx, src, tag)
				if prev, dup := seen[k]; dup {
					t.Fatalf("key %#x of (ctx %d, src %d, tag %d) aliases %v", k, ctx, src, tag, prev)
				}
				seen[k] = [3]int{ctx, src, tag}
			}
		}
	}
}

// TestRefusedMatchKeys holds isend and irecv to the key's bounds at each
// field's boundary: a rank outside the world, a negative tag other than a
// receive's AnyTag and a tag above maxTag are refused at the call, and so are
// a context past maxCtx at World.Start and a world too large for the rank
// field.
func TestRefusedMatchKeys(t *testing.T) {
	const n = 4
	cases := []struct {
		peer, tag      int
		sendOK, recvOK bool
	}{
		{0, 0, true, true},
		{n - 1, maxTag, true, true},
		{n, 0, false, false},
		{-2, 0, false, false},
		{AnySource, 0, false, true},
		{0, AnyTag, false, true},
		{AnySource, AnyTag, false, true},
		{0, -2, false, false},
		{0, maxTag + 1, false, false},
	}
	refused := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return false
	}
	runProg(t, n, nil, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for _, tc := range cases {
			if got := !refused(func() { c.Isend(tc.peer, tc.tag, Virtual(8)) }); got != tc.sendOK {
				t.Errorf("Isend(rank %d, tag %d) accepted = %v, want %v", tc.peer, tc.tag, got, tc.sendOK)
			}
			if got := !refused(func() { c.Irecv(tc.peer, tc.tag, Virtual(8)) }); got != tc.recvOK {
				t.Errorf("Irecv(rank %d, tag %d) accepted = %v, want %v", tc.peer, tc.tag, got, tc.recvOK)
			}
		}
	})

	_, w := testWorld(t, n, nil)
	w.nextCtx = maxCtx
	if refused(func() { w.Start(func(*Comm) {}) }) {
		t.Errorf("Start with context %d refused", maxCtx)
	}
	if !refused(func() { w.Start(func(*Comm) {}) }) {
		t.Errorf("Start with context %d accepted", maxCtx+1)
	}
	if big := (&shard{ranks: make([]*Rank, maxRanks+1)}); !refused(func() { big.checkKey("Start with", 1, AnySource, AnyTag, true) }) {
		t.Errorf("a %d-rank world accepted", maxRanks+1)
	}
}

// FuzzMatch holds the matcher to the linear reference (matchref.go) on
// arbitrary post/arrive streams, like TestMatchingOrderProperty but with
// queues driven past shallow and back. Each operation is two bytes:
//
//	op: bit 0 an arrival (else a post), bit 1 the arrival is an RTS (else
//	    eager), bit 2 context 2 (else 1), bit 3 a post's source is
//	    AnySource, bit 4 its tag is AnyTag, bits 5-7 the repeat count - 1;
//	b:  bits 0-1 the source, bits 2-4 the tag.
//
// A repeated operation runs with tags tag, tag+1, ... (mod 8), so a few
// bytes build deep queues. Every decision and all three modeled-cost
// counters must agree with the reference after every operation. The seed
// corpus (testdata/fuzz/FuzzMatch) reaches both sides of shallow on the
// posted and both unexpected queues.
func FuzzMatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		var m matcher
		var ref refMatcher
		reqID := map[*Request]int{}
		envID := map[*envelope]int{}
		nextID := 0
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, b := prog[pc], prog[pc+1]
			ctx := 1 + int(op>>2&1)
			for i := 0; i <= int(op>>5); i++ {
				src, tag := int(b&3), (int(b>>2)+i)%8
				id := nextID
				nextID++
				if op&1 == 0 {
					if op&8 != 0 {
						src = AnySource
					}
					if op&16 != 0 {
						tag = AnyTag
					}
					gotEnv, gotQueue := -1, refQueueNone
					if env := m.eager.take(ctx, src, tag); env != nil {
						gotEnv, gotQueue = envID[env], refQueueEager
					} else if env := m.rts.take(ctx, src, tag); env != nil {
						gotEnv, gotQueue = envID[env], refQueueRTS
					} else {
						q := &Request{peer: src, tag: tag, ctx: ctx}
						reqID[q] = id
						m.post(q)
					}
					if wantEnv, wantQueue := ref.post(ctx, src, tag, id); gotEnv != wantEnv || gotQueue != wantQueue {
						t.Fatalf("op %d: post(ctx=%d src=%d tag=%d) consumed env %d (queue %d), reference says env %d (queue %d)",
							pc/2, ctx, src, tag, gotEnv, gotQueue, wantEnv, wantQueue)
					}
				} else {
					rts := op&2 != 0
					got := -1
					if q := m.matchArrival(ctx, src, tag); q != nil {
						got = reqID[q]
					} else {
						env := &envelope{src: src, tag: tag, ctx: ctx}
						envID[env] = id
						if rts {
							m.rts.push(env)
						} else {
							m.eager.push(env)
						}
					}
					if want := ref.arrive(ctx, src, tag, id, rts); got != want {
						t.Fatalf("op %d: arrival(ctx=%d src=%d tag=%d rts=%v) matched recv %d, reference says %d",
							pc/2, ctx, src, tag, rts, got, want)
					}
				}
				if m.postedCount != len(ref.posted) || m.eager.count != len(ref.eager) || m.rts.count != len(ref.rts) {
					t.Fatalf("op %d: modeled-cost counters (%d posted, %d eager, %d rts) diverge from reference (%d, %d, %d)",
						pc/2, m.postedCount, m.eager.count, m.rts.count, len(ref.posted), len(ref.eager), len(ref.rts))
				}
			}
		}
	})
}
