package nbc

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

func forkTestWorld(t testing.TB, n int) (*sim.Engine, *mpi.World) {
	t.Helper()
	eng := sim.NewEngine(9)
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	net, err := netmodel.New(eng, testParams(nil), nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld([]*netmodel.Network{net}, nil, n, mpi.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

// TestStartPanicsOnPendingPooledHandle is the re-arm invariant regression
// test: a Handle that reaches the pool while its rounds are still in flight
// must make the next Start panic with a diagnostic instead of silently
// aliasing two collectives onto one pending list.
func TestStartPanicsOnPendingPooledHandle(t *testing.T) {
	const n = 2
	eng, w := forkTestWorld(t, n)
	errs := make(chan string, n)
	w.Start(func(c *mpi.Comm) {
		me := c.Rank()
		sched := Ibcast(n, me, 0, mpi.Virtual(256*1024), 2, 64*1024) // rendezvous: rounds stay pending past Start
		h := Start(c, sched)
		if h.done {
			errs <- "collective completed inline; test needs in-flight rounds"
		}
		pool := poolFor(c.RankState())
		pool.free = append(pool.free, h) // corrupt: in-flight handle in the pool
		func() {
			defer func() {
				r := recover()
				switch {
				case r == nil:
					errs <- "Start on a pending pooled handle did not panic"
				case !strings.Contains(fmt.Sprint(r), "still pending"):
					errs <- fmt.Sprintf("panic lacks diagnostic: %v", r)
				}
			}()
			Start(c, sched)
		}()
		// The panicking Start popped the corrupted entry before checking it,
		// so the pool is consistent again; finish the collective properly.
		h.Wait()
	})
	eng.Run()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestTagOffOutsideStrideRefused: an offset at or past the stride, a
// negative one, and one too wide for Op.TagOff that would wrap to 3 all make
// Start panic instead of posting on another collective's tags.
func TestTagOffOutsideStrideRefused(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an offset wider than int32 needs a 64-bit int")
	}
	var wide int64 = 1<<32 + 3
	offs := []int{mpi.NBTagStride, -1, int(wide)}
	const n = 2
	eng, w := forkTestWorld(t, n)
	errs := make(chan string, n*len(offs))
	w.Start(func(c *mpi.Comm) {
		for _, off := range offs {
			b := newBuilder("bad", mpi.Buf{}, 1, 1)
			b.add(postOne(OpSend, off, 1-c.Rank(), b.buf(mpi.Virtual(1)), 0, 1))
			sched := b.done()
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside the") {
						errs <- fmt.Sprintf("tag offset %d: Start recovered %v, want the stride refusal", off, r)
					}
				}()
				Start(c, sched)
			}()
		}
	})
	eng.Run()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestForkHandlePoolNoAliasing pins the nbc half of the fork contract: the
// forked pool has the parent's depth and warmed pending capacity, but no
// slice of a forked handle shares backing memory with the parent's.
func TestForkHandlePoolNoAliasing(t *testing.T) {
	const n = 4
	eng, w := forkTestWorld(t, n)
	parentRanks := make([]*mpi.Rank, n)
	w.Start(func(c *mpi.Comm) {
		parentRanks[c.Rank()] = c.RankState()
		sched := Ibcast(n, c.Rank(), 0, mpi.Virtual(64*1024), 2, 16*1024)
		for i := 0; i < 3; i++ {
			Run(c, sched)
		}
	})
	eng.Run()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	feng, fw := snap.Fork()
	forkRanks := make([]*mpi.Rank, n)
	fw.Start(func(c *mpi.Comm) { forkRanks[c.Rank()] = c.RankState() })
	feng.Run()

	for r := 0; r < n; r++ {
		pp, fp := poolFor(parentRanks[r]), poolFor(forkRanks[r])
		if len(fp.free) != len(pp.free) {
			t.Fatalf("rank %d: fork pool depth %d, parent %d", r, len(fp.free), len(pp.free))
		}
		for i := range pp.free {
			ph, fh := pp.free[i], fp.free[i]
			if ph == fh {
				t.Fatalf("rank %d: fork pool shares handle record %d with parent", r, i)
			}
			if !fh.released || fh.comm != nil || len(fh.pending) != 0 {
				t.Fatalf("rank %d: forked handle %d is not a clean released record", r, i)
			}
			if cap(fh.pending) != cap(ph.pending) {
				t.Fatalf("rank %d: forked handle %d pending cap %d, parent %d", r, i, cap(fh.pending), cap(ph.pending))
			}
			if cap(ph.pending) > 0 {
				ps, fs := ph.pending[:1], fh.pending[:1]
				if &ps[0] == &fs[0] {
					t.Fatalf("rank %d: forked handle %d pending slice aliases the parent's array", r, i)
				}
			}
		}
	}
}

// TestForkedPersistentIbcastSteadyStateAllocs extends the zero-allocation
// acceptance pin into a fork: a forked world inherits warm pools from the
// snapshot, and once its own free lists have grown to working size a full
// persistent-Ibcast iteration in the fork allocates nothing.
func TestForkedPersistentIbcastSteadyStateAllocs(t *testing.T) {
	const n = 4
	eng, w := forkTestWorld(t, n)
	w.Start(func(c *mpi.Comm) {
		sched := Ibcast(n, c.Rank(), 0, mpi.Virtual(32*1024), 2, 8*1024)
		for i := 0; i < 20; i++ {
			Run(c, sched)
		}
	})
	eng.Run()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	feng, fw := snap.Fork()
	gate := sim.NewCond(feng)
	released := 0
	fw.Start(func(c *mpi.Comm) {
		sched := Ibcast(n, c.Rank(), 0, mpi.Virtual(32*1024), 2, 8*1024)
		it := 0
		for {
			for released <= it {
				gate.Wait(c.RankState().Proc())
			}
			Run(c, sched)
			it++
		}
	})
	deadline := feng.Now()
	step := func() {
		released++
		gate.Broadcast()
		deadline += 1.0
		feng.RunUntil(deadline)
	}
	for i := 0; i < 50; i++ {
		step() // grow the fork's matcher free lists and heap once
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("forked steady-state persistent Ibcast iteration: %v allocs, want 0", allocs)
	}
}

// TestComposeTagRebaseAcrossNBTagWindowWrap covers the intersection of
// Compose's tag rebasing with the FreshNBTag window: composed schedules run
// back-to-back across the point where base tags wrap from the top of the
// window to the bottom, with real payloads proving no cross-part or
// cross-operation mismatch. The tag-space constants mirror the layout
// pinned by mpi's TestFreshNBTagWindow.
func TestComposeTagRebaseAcrossNBTagWindowWrap(t *testing.T) {
	const (
		n          = 4
		root       = 1
		size       = 6000 // not divisible by n: exercises padded tail blocks
		nbTagBase  = 1 << 26
		tagStride  = 1 << 18
		tagWindow  = 1 << 15
		spin       = tagWindow - 2 // leave two draws below the wrap point
		iterations = 4             // two ops at the window top, two after the wrap
	)
	eng, w := forkTestWorld(t, n)
	errs := make(chan string, n*iterations)
	tags := make([]int, iterations) // rank 0's observed base tags
	w.Start(func(c *mpi.Comm) {
		me := c.Rank()
		for i := 0; i < spin; i++ {
			c.FreshNBTag()
		}
		buf := make([]byte, size)
		want := make([]byte, size)
		sched := MockBcastScatterAllgather(n, me, root, mpi.Bytes(buf))
		hi := 0
		for _, r := range sched.Rounds {
			for _, op := range r {
				hi = max(hi, op.TagOff())
			}
		}
		if hi < 1 || hi >= tagStride {
			errs <- fmt.Sprintf("composed schedule's largest tag offset %d, want within (0,%d)", hi, tagStride)
		}
		for it := 0; it < iterations; it++ {
			if me == root {
				confFill(buf, uint64(it))
			} else {
				for i := range buf {
					buf[i] = 0
				}
			}
			h := Start(c, sched)
			if me == 0 {
				tags[it] = h.tag
			}
			h.Wait()
			confFill(want, uint64(it))
			if !bytes.Equal(buf, want) {
				errs <- fmt.Sprintf("iteration %d: payload diverged across the tag-window wrap", it)
			}
		}
	})
	eng.Run()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	wantTags := []int{
		nbTagBase + (tagWindow-1)*tagStride,
		nbTagBase + tagWindow*tagStride,
		nbTagBase + 1*tagStride, // wrapped
		nbTagBase + 2*tagStride,
	}
	for i, want := range wantTags {
		if tags[i] != want {
			t.Fatalf("op %d drew base tag %d, want %d (window wrap misplaced)", i, tags[i], want)
		}
	}
}
