package mpi

import (
	"strings"
	"testing"

	"nbctune/internal/chaos"
	"nbctune/internal/netmodel"
	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

// testParams is the RDMA parameter set of the package's test worlds, mutate
// applied.
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

// testWorld builds an n-rank sequential world, one rank per node, over
// testParams.
func testWorld(t testing.TB, n int, mutate func(*netmodel.Params)) (*sim.Engine, *World) {
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	eng := sim.NewEngine(1)
	net, err := netmodel.New(eng, testParams(mutate), nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld([]*netmodel.Network{net}, nil, n, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

// TestNewWorldRefusals pins the errors of the one world constructor: a world
// larger than its placement (which once indexed past the placement inside
// Start, or while assigning ranks to shards) names both counts, and the views
// must come one without windows or as many as the windows have shards.
func TestNewWorldRefusals(t *testing.T) {
	seq, err := netmodel.New(sim.NewEngine(1), testParams(nil), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, win, err := netmodel.NewSharded(testParams(nil), []int{0, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		nets []*netmodel.Network
		win  *sim.Windows
		n    int
		want string
	}{
		{"sequential, larger than its placement", []*netmodel.Network{seq}, nil, 4, "4 ranks but the placement covers 2"},
		{"sharded, larger than its placement", sharded, win, 3, "3 ranks but the placement covers 2"},
		{"no views", nil, nil, 2, "0 network views for 1 shards"},
		{"two views without windows", sharded, nil, 2, "2 network views for 1 shards"},
		{"one view for two window shards", sharded[:1], win, 2, "1 network views for 2 shards"},
	} {
		w, err := NewWorld(tc.nets, tc.win, tc.n, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got world %v, error %v; want an error naming %q", tc.name, w != nil, err, tc.want)
		}
	}
}

func runProg(t testing.TB, n int, mutate func(*netmodel.Params), prog func(c *Comm)) float64 {
	eng, w := testWorld(t, n, mutate)
	w.Start(prog)
	return eng.Run()
}

func TestEagerSendRecvData(t *testing.T) {
	got := make([]byte, 4)
	runProg(t, 2, nil, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, Bytes([]byte{1, 2, 3, 4}))
		case 1:
			req := c.Recv(0, 7, Bytes(got))
			if req.SrcActual() != 0 || req.TagActual() != 7 {
				t.Errorf("match metadata = (%d,%d), want (0,7)", req.SrcActual(), req.TagActual())
			}
		}
	})
	if string(got) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("payload = %v", got)
	}
}

func TestRendezvousSendRecvData(t *testing.T) {
	big := make([]byte, 64*1024) // above the 12KB eager limit
	for i := range big {
		big[i] = byte(i * 13)
	}
	got := make([]byte, len(big))
	runProg(t, 2, nil, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, Bytes(big))
		case 1:
			c.Recv(0, 1, Bytes(got))
		}
	})
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

// TestRendezvousPayloadSurvivesSenderReuse pins where the payload of a
// transfer that moves by itself is snapshotted. The sender overwrites its
// buffer as soon as its request completes, while the receiver is still
// computing outside MPI; the receiver must later get the original bytes —
// for a rendezvous send and for a put, on a sequential and on a 2-shard
// world. The transport is host-attended, so a put too becomes visible only
// at the target's next MPI instant.
func TestRendezvousPayloadSurvivesSenderReuse(t *testing.T) {
	const size = 64 * 1024 // above the eager limit
	hostAttended := func(p *netmodel.Params) { p.RDMA = false }
	worlds := []struct {
		name string
		run  func(prog func(*Comm))
	}{
		{"sequential", func(prog func(*Comm)) {
			eng, w := testWorld(t, 2, hostAttended)
			w.Start(prog)
			eng.Run()
		}},
		{"2-shards", func(prog func(*Comm)) {
			sw := testShardedWorld(t, 2, 1, 2, hostAttended)
			sw.Start(prog)
			sw.Run()
		}},
	}
	for _, world := range worlds {
		for _, put := range []bool{false, true} {
			name := world.name + "/rendezvous"
			if put {
				name = world.name + "/put"
			}
			t.Run(name, func(t *testing.T) {
				got := make([]byte, size)
				var reusedAt, consumedAt float64 // written by ranks 0 and 1, read after the run
				world.run(func(c *Comm) {
					winBuf := got
					if c.Rank() == 0 {
						winBuf = make([]byte, size)
					}
					w := c.CreateWin(Bytes(winBuf))
					c.Barrier() // every rank has created its window
					k := w.NextInstance()
					if c.Rank() == 0 {
						data := make([]byte, size)
						for i := range data {
							data[i] = byte(i*7 + 1)
						}
						var req *Request
						if put {
							req = w.PutInstanced(k, 1, 0, Bytes(data))
						} else {
							req = c.Isend(1, 3, Bytes(data))
						}
						c.Wait(req)
						for i := range data {
							data[i] = 0xEE
						}
						reusedAt = c.Now()
						return
					}
					var req *Request
					if !put {
						req = c.Irecv(0, 3, Bytes(got))
					}
					c.Compute(1e-4)
					c.Test() // answers the RTS
					c.Compute(0.5)
					consumedAt = c.Now()
					if put {
						c.WaitFor(arrived(w, k, 1))
					} else {
						c.Wait(req)
					}
				})
				if reusedAt <= 0 || reusedAt >= consumedAt {
					t.Fatalf("sender reused its buffer at %g, receiver consumed at %g: the hazard was not exercised", reusedAt, consumedAt)
				}
				for i, b := range got {
					if want := byte(i*7 + 1); b != want {
						t.Fatalf("byte %d = %#x, want %#x: the receiver read the sender's reused buffer", i, b, want)
					}
				}
			})
		}
	}
}

func TestUnexpectedEagerMessageMatchesAtPost(t *testing.T) {
	got := make([]byte, 3)
	runProg(t, 2, nil, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, Bytes([]byte{9, 8, 7}))
		case 1:
			c.Compute(1e-3) // message arrives while computing
			c.r.Progress()  // processed into the unexpected queue
			c.Recv(0, 5, Bytes(got))
		}
	})
	if got[0] != 9 || got[2] != 7 {
		t.Fatalf("payload = %v", got)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	var order []int
	runProg(t, 3, nil, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 10, Bytes([]byte{10}))
		case 1:
			c.Send(2, 11, Bytes([]byte{11}))
		case 2:
			b := make([]byte, 1)
			c.Recv(1, 11, Bytes(b))
			order = append(order, int(b[0]))
			c.Recv(0, 10, Bytes(b))
			order = append(order, int(b[0]))
		}
	})
	if len(order) != 2 || order[0] != 11 || order[1] != 10 {
		t.Fatalf("matching order = %v, want [11 10]", order)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	srcs := map[int]bool{}
	runProg(t, 3, nil, func(c *Comm) {
		if c.Rank() == 0 {
			b := make([]byte, 1)
			for i := 0; i < 2; i++ {
				req := c.Recv(AnySource, AnyTag, Bytes(b))
				srcs[req.SrcActual()] = true
			}
		} else {
			c.Send(0, 100+c.Rank(), Bytes([]byte{byte(c.Rank())}))
		}
	})
	if !srcs[1] || !srcs[2] {
		t.Fatalf("AnySource matched %v, want both 1 and 2", srcs)
	}
}

func TestRendezvousRequiresProgress(t *testing.T) {
	// The receiver posts its recv then computes for a long time without any
	// progress call; the rendezvous cannot complete before the receiver
	// re-enters MPI, so the sender's Wait must stretch past the receiver's
	// compute phase.
	const computeT = 0.5
	var senderDone float64
	runProg(t, 2, nil, func(c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Isend(1, 1, Virtual(64*1024))
			c.Wait(req)
			senderDone = c.Now()
		case 1:
			req := c.Irecv(0, 1, Virtual(64*1024))
			c.Compute(computeT) // no progress at all
			c.Wait(req)
		}
	})
	if senderDone < computeT {
		t.Fatalf("sender finished at %g, before receiver's first MPI instant at %g", senderDone, computeT)
	}
}

func TestRendezvousOverlapsWithProgress(t *testing.T) {
	// Same scenario but the receiver makes progress calls during the compute
	// phase; the handshake then completes early and the bulk transfer
	// overlaps the remaining compute, so the sender finishes well before the
	// receiver's compute ends.
	const computeT = 0.5
	var senderDone float64
	runProg(t, 2, nil, func(c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Isend(1, 1, Virtual(64*1024))
			c.Wait(req)
			senderDone = c.Now()
		case 1:
			req := c.Irecv(0, 1, Virtual(64*1024))
			for i := 0; i < 10; i++ {
				c.Compute(computeT / 10)
				c.r.Progress()
			}
			c.Wait(req)
		}
	})
	if senderDone > computeT/2 {
		t.Fatalf("sender finished at %g; expected overlap to complete it near %g", senderDone, computeT/10)
	}
}

func TestEagerCompletesImmediatelyAtSender(t *testing.T) {
	var sendDone float64
	runProg(t, 2, nil, func(c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Isend(1, 1, Virtual(1024))
			if !req.done {
				t.Error("eager send not complete at post")
			}
			sendDone = c.Now()
		case 1:
			c.Recv(0, 1, Virtual(1024))
		}
	})
	if sendDone > 1e-4 {
		t.Fatalf("eager send took %g, should be ~overheads only", sendDone)
	}
}

func TestSendrecvNoDeadlock(t *testing.T) {
	end := runProg(t, 2, nil, func(c *Comm) {
		peer := 1 - c.Rank()
		// Rendezvous-sized exchange in both directions simultaneously.
		c.Sendrecv(peer, 3, Virtual(64*1024), peer, 3, Virtual(64*1024))
	})
	if end <= 0 {
		t.Fatal("no time elapsed")
	}
}

// TestNoiseApplied: Compute stretches a phase by the world's noise model,
// drawn from the rank's stream, which a model that draws nothing never
// creates. The recorder sees the stretched phase.
func TestNoiseApplied(t *testing.T) {
	for _, tc := range []struct {
		noise   chaos.OSNoise
		end     float64
		drawing bool
	}{
		{chaos.OSNoise{DetourProb: 1, DetourTime: 1.0}, 2.0, true}, // a certain detour
		{chaos.OSNoise{DetourTime: 1.0}, 1.0, false},               // never drawn
	} {
		eng := sim.NewEngine(1)
		p := netmodel.Params{Name: "t", Latency: 1e-6, Bandwidth: 1e9, NICs: 1,
			EagerLimit: 1024, CtrlBytes: 64, CopyBandwidth: 1e9, ShmLatency: 1e-7, ShmBandwidth: 1e9}
		net, err := netmodel.New(eng, p, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld([]*netmodel.Network{net}, nil, 1, Options{Seed: 1, Noise: tc.noise})
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(1)
		w.Observe(rec)
		var end float64
		w.Start(func(c *Comm) {
			c.Compute(1.0)
			end = c.Now()
		})
		eng.Run()
		if end != tc.end {
			t.Fatalf("%+v: compute ended at %g, want %g", tc.noise, end, tc.end)
		}
		if got := rec.Metrics().TotalCompute; got != tc.end {
			t.Fatalf("%+v: recorded compute %g, want %g", tc.noise, got, tc.end)
		}
		if (w.ranks[0].rng != nil) != tc.drawing {
			t.Fatalf("%+v: rank stream created = %v, want %v", tc.noise, w.ranks[0].rng != nil, tc.drawing)
		}
	}
}

// TestAccountingCounters: the recorder, not the rank, accounts a rank's time
// inside MPI and its progress calls.
func TestAccountingCounters(t *testing.T) {
	eng, w := testWorld(t, 2, nil)
	rec := obs.NewRecorder(2)
	w.Observe(rec)
	w.Start(func(c *Comm) {
		peer := 1 - c.Rank()
		c.Sendrecv(peer, 1, Virtual(1024), peer, 1, Virtual(1024))
		c.r.Progress()
	})
	eng.Run()
	for i, rm := range rec.Metrics().Ranks {
		if rm.MPI <= 0 {
			t.Errorf("rank %d: time in MPI = %g, want > 0", i, rm.MPI)
		}
		if rm.ProgressCalls != 1 {
			t.Errorf("rank %d: progress calls = %d, want 1", i, rm.ProgressCalls)
		}
	}
}

// TestWaitOnReverseArrivals: rank 0 posts one receive per peer and waits on
// all of them while the sends arrive in reverse post order, so every poll of
// the wait finds the last-posted receives done and the first-posted one still
// open. The wait resumes its scan where the last poll stopped, which must
// change nothing: the virtual end is pinned, for Wait and WaitHandles, eager
// and rendezvous, and for arrivals in post order too.
func TestWaitOnReverseArrivals(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		size    int
		reverse bool
		end     float64
	}{
		{1024, true, 7.4882666666666674e-05},
		{1024, false, 7.4882666666666674e-05},
		{64 * 1024, true, 0.00032712000000000008},
		{64 * 1024, false, 0.00032712000000000008},
	} {
		for _, handles := range []bool{false, true} {
			end := runProg(t, n, nil, func(c *Comm) {
				me := c.Rank()
				if me != 0 {
					delay := me
					if tc.reverse {
						delay = n - me
					}
					c.Compute(float64(delay) * 1e-5)
					c.Send(0, me, Virtual(tc.size))
					return
				}
				reqs := make([]*Request, 0, n-1)
				for src := 1; src < n; src++ {
					reqs = append(reqs, c.Irecv(src, src, Virtual(tc.size)))
				}
				if handles {
					hs := make([]ReqHandle, len(reqs))
					for i, q := range reqs {
						hs[i] = q.Handle()
					}
					c.WaitHandles(hs)
				} else {
					c.Wait(reqs...)
				}
				for _, q := range reqs {
					if !q.done {
						t.Errorf("size %d reverse %v handles %v: the wait returned with a receive from %d open", tc.size, tc.reverse, handles, q.peer)
					}
				}
				c.FreeRequests(reqs...)
			})
			if end != tc.end {
				t.Errorf("size %d reverse %v handles %v: virtual end %.17g, want %.17g", tc.size, tc.reverse, handles, end, tc.end)
			}
		}
	}
}

func TestManyMessagesStress(t *testing.T) {
	const n = 8
	const msgs = 50
	counts := make([]int, n)
	runProg(t, n, nil, func(c *Comm) {
		me := c.Rank()
		var reqs []*Request
		for i := 0; i < msgs; i++ {
			for p := 0; p < n; p++ {
				if p == me {
					continue
				}
				reqs = append(reqs, c.Irecv(p, i, Virtual(256)))
			}
		}
		for i := 0; i < msgs; i++ {
			for p := 0; p < n; p++ {
				if p == me {
					continue
				}
				reqs = append(reqs, c.Isend(p, i, Virtual(256)))
			}
		}
		c.Wait(reqs...)
		counts[me] = len(reqs)
	})
	for i, got := range counts {
		if got != 2*msgs*(n-1) {
			t.Fatalf("rank %d completed %d reqs", i, got)
		}
	}
}

// TestBlockingRendezvousResumesOncePerCall is a hand-off budget no host can
// move: a blocking call's CPU charges and protocol steps (RTS, CTS, bulk,
// completion) run ahead or in event context, and the rank's coroutine is
// resumed once, when the call is over — not once per charge.
func TestBlockingRendezvousResumesOncePerCall(t *testing.T) {
	const calls = 10
	eng, w := testWorld(t, 2, nil)
	w.Start(func(c *Comm) {
		buf := Virtual(64 * 1024) // above the 12KB eager limit
		for i := 0; i < calls; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, buf)
			} else {
				c.FreeRequests(c.Recv(0, i, buf))
			}
		}
	})
	eng.Run()
	if want := int64(2 + 2*calls); eng.Resumes != want {
		t.Fatalf("%d resumes for %d Send/Recv pairs, want %d: one start per rank, one resume per call", eng.Resumes, calls, want)
	}
}

// TestRequestPoolLifecycle pins what DESIGN.md §3 "Pooling" promises of a
// pooled request: the record a freed request returns to is the next one
// drawn, one generation on; a handle to its old life keeps reading done while
// its new life reads not-done until it completes; and freeing twice or before
// completion panics.
func TestRequestPoolLifecycle(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg, _ = p.(string)
			}
		}()
		f()
		return ""
	}
	eng, w := testWorld(t, 2, nil)
	w.Start(func(c *Comm) {
		if c.Rank() == 0 {
			for tag := 9; tag <= 11; tag++ {
				c.Compute(1e-3)
				c.Send(1, tag, Virtual(128))
			}
			return
		}
		q := c.Recv(0, 9, Virtual(128))
		stale := q.Handle()
		c.FreeRequests(q)
		q2 := c.Irecv(0, 10, Virtual(128))
		if q2 != q || q2.gen != stale.gen+1 {
			t.Errorf("the next receive drew %p at generation %d, want the freed record %p at %d", q2, q2.gen, q, stale.gen+1)
		}
		if !stale.Done() {
			t.Error("a handle to the freed request reads not-done")
		}
		fresh := q2.Handle()
		if fresh.Done() {
			t.Error("the record's new life reads done before its message arrived")
		}
		c.Wait(q2)
		if !fresh.Done() {
			t.Error("the record's new life reads not-done after Wait")
		}
		c.FreeRequests(q2)
		if msg := panicOf(func() { c.FreeRequests(q2) }); msg != "mpi: request freed twice" {
			t.Errorf("a second free panicked with %q, want %q", msg, "mpi: request freed twice")
		}
		q3 := c.Irecv(0, 11, Virtual(128))
		if msg := panicOf(func() { c.FreeRequests(q3) }); !strings.HasPrefix(msg, "mpi: freeing an incomplete request") {
			t.Errorf("freeing an incomplete request panicked with %q", msg)
		}
		c.Wait(q3)
	})
	eng.Run()
}

// TestWildcardReceiveReportsActual pins the accessors of a completed
// receive's match: a receive posted with AnySource and AnyTag reports the
// sender and the tag of the message it matched, whether the message arrived
// before the post (eager and rendezvous unexpected queues) or after it (the
// posted chain and, past shallow, the index), and the rank's wildcard count
// returns to zero once the filters are overwritten.
func TestWildcardReceiveReportsActual(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes int
		early bool // the messages arrive before the receives are posted
		n     int  // senders, each sending once
	}{
		{"eager, posted first", 64, false, 3},
		{"eager, arrived first", 64, true, 3},
		{"rendezvous, posted first", 64 << 10, false, 3},
		{"rendezvous, arrived first", 64 << 10, true, 3},
		{"eager, posted past shallow", 64, false, shallow + 4},
	} {
		got := map[int]int{} // sender -> tag reported
		_, w := testWorld(t, tc.n+1, nil)
		w.Start(func(c *Comm) {
			if c.Rank() != 0 {
				c.Send(0, 100+c.Rank(), Virtual(tc.bytes))
				return
			}
			if tc.early {
				c.Compute(1e-3)
			}
			reqs := make([]*Request, tc.n)
			for i := range reqs {
				reqs[i] = c.Irecv(AnySource, AnyTag, Virtual(tc.bytes))
			}
			c.Wait(reqs...)
			for _, q := range reqs {
				got[q.SrcActual()] = q.TagActual()
			}
			if m := &c.r.m; m.postedCount != 0 || m.postedWild != 0 {
				t.Errorf("%s: %d posted, %d wildcard receives left after the wait", tc.name, m.postedCount, m.postedWild)
			}
			c.FreeRequests(reqs...)
		})
		w.Run()
		for src := 1; src <= tc.n; src++ {
			if tag, ok := got[src]; !ok || tag != 100+src {
				t.Errorf("%s: sender %d reported with tag %d (%v), want tag %d", tc.name, src, tag, ok, 100+src)
			}
		}
	}
}

// TestOversizedBuffersRefused pins the bound of a protocol record's length:
// Isend, Irecv and a put refuse a buffer of MaxPayload+1 = 2^31 bytes at the
// call, which a record's int32 length would wrap, a put refuses an offset
// past MaxPayload, and a window refuses a context past an int32; MaxPayload
// bytes themselves are accepted.
func TestOversizedBuffersRefused(t *testing.T) {
	refusal := func(f func()) (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg, _ = p.(string)
			}
		}()
		f()
		return ""
	}
	const over = MaxPayload + 1
	runProg(t, 2, nil, func(c *Comm) {
		win := c.CreateWin(Virtual(over + 8))
		if c.Rank() != 0 {
			return
		}
		for _, tc := range []struct {
			name string
			call func()
			want string
		}{
			{"Isend of 2^31 bytes", func() { c.Isend(1, 0, Virtual(over)) }, "isend of a 2147483648-byte buffer"},
			{"Irecv of 2^31 bytes", func() { c.Irecv(1, 0, Virtual(over)) }, "irecv into a 2147483648-byte buffer"},
			{"put of 2^31 bytes", func() { win.PutInstanced(1, 1, 0, Virtual(over)) }, "put of a 2147483648-byte buffer"},
			{"put at offset 2^31", func() { win.PutInstanced(1, 1, over, Virtual(8)) }, "offsets up to 2147483647"},
			{"Isend of MaxPayload bytes", func() { c.Isend(1, 1, Virtual(MaxPayload)) }, ""},
			{"Irecv of MaxPayload bytes", func() { c.Irecv(1, 2, Virtual(MaxPayload)) }, ""},
			{"window of context 2200", func() { (&Comm{r: c.r, ctx: 2200}).CreateWin(Virtual(8)) }, "does not fit a put's int32"},
		} {
			if got := refusal(tc.call); tc.want == "" && got != "" || !strings.Contains(got, tc.want) {
				t.Errorf("%s: panicked with %q, want %q", tc.name, got, tc.want)
			}
		}
	})
}

// WaitFor blocks inside MPI until pred holds, processing protocol notices as
// they arrive. The tests wait for non-request completion conditions
// (put counters, window states) through this.
func (c *Comm) WaitFor(pred func() bool) {
	c.ArmFor(pred)
	c.r.waitUntil()
	c.r.waitPred = nil
}

// SrcActual returns the rank a completed receive's message came from, the
// actual source of a receive posted with AnySource.
func (req *Request) SrcActual() int { return int(req.peer) }

// TagActual returns the tag of a completed receive's message, the actual tag
// of a receive posted with AnyTag.
func (req *Request) TagActual() int { return req.tag }
