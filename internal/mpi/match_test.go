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
// match-and-repost cycles touch only pooled records.
func TestMatcherSteadyStateAllocs(t *testing.T) {
	for _, k := range []int{1, 64, 1024} {
		mb := NewMatchBench(k, true)
		mb.RunCycles(4 * k)
		if n := testing.AllocsPerRun(100, func() { mb.RunCycles(8) }); n != 0 {
			t.Errorf("k=%d: %v allocs per 8 match cycles, want 0", k, n)
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
