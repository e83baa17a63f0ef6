package nbc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

// post is one request a schedule posts, as the runs test compares them.
type post struct {
	round     int
	kind      OpKind
	peer, tag int
	off, len  int
	n         int // OpPut: the window offset
}

// singles returns s with every run expanded into its posts, one entry of
// Count 1 each, carrying the block its post carries: the form every run must
// post like.
func singles(s *Schedule, n int) *Schedule {
	b := &builder{s: &Schedule{Name: s.Name, Win: s.Win, data: s.data}}
	for _, r := range s.Rounds {
		for _, op := range r {
			if !op.Kind().posts() {
				b.add(op)
				continue
			}
			peer := int(op.Peer)
			for range op.Count {
				one := op
				one.Peer, one.Count, one.Step, one.kt = int32(peer), 1, 0, op.kt|sameBit
				if !op.SameBlock() {
					one.Off = i32(int(op.Off) + peer*int(op.Len))
				}
				b.add(one)
				peer = mod(peer+int(op.Step), n)
			}
		}
		b.end()
	}
	return b.done()
}

// postsOf lists the posts of a schedule whose entries are all single posts.
func postsOf(t *testing.T, s *Schedule) []post {
	var ps []post
	for ri, r := range s.Rounds {
		for _, op := range r {
			if !op.Kind().posts() {
				continue
			}
			if op.Count != 1 || !op.SameBlock() {
				t.Fatalf("%s: round %d holds a run of %d after expansion", s.Name, ri, op.Count)
			}
			ps = append(ps, post{ri, op.Kind(), int(op.Peer), op.TagOff(), int(op.Off), int(op.Len), int(op.N)})
		}
	}
	return ps
}

// runCase is a builder that emits runs: how to build one rank's schedule
// over its payloads, and the posts that rank made when every post was an
// entry of its own.
type runCase struct {
	name   string
	rooted bool
	put    bool // the schedule puts into a window over recv
	// sizes of send and recv for n ranks and block bs
	sizes func(n, bs int) (send, recv int)
	build func(n, me, root, bs int, send, recv mpi.Buf, win *mpi.Win) *Schedule
	want  func(n, me, root, bs int) []post
}

func bcastCase(fanout int) runCase {
	const segs = 3
	return runCase{
		name:   "ibcast-" + FanoutName(fanout),
		rooted: true,
		sizes:  func(n, bs int) (int, int) { return segs*bs - 5, 0 },
		build: func(n, me, root, bs int, buf, _ mpi.Buf, _ *mpi.Win) *Schedule {
			return Ibcast(n, me, root, buf, fanout, bs)
		},
		want: func(n, me, root, bs int) []post {
			if n == 1 {
				return nil
			}
			size := segs*bs - 5
			parent, children := bcastTree(n, (me-root+n)%n, fanout)
			var ps []post
			sendTo := func(round, si int) {
				off, l := seg(size, bs, si)
				for _, c := range children {
					ps = append(ps, post{round, OpSend, (c + root) % n, si, off, l, 0})
				}
			}
			if parent < 0 {
				for si := 0; si < segs; si++ {
					sendTo(si, si)
				}
				return ps
			}
			for si := 0; si <= segs; si++ {
				if si > 0 {
					sendTo(si, si-1)
				}
				if si < segs {
					off, l := seg(size, bs, si)
					ps = append(ps, post{si, OpRecv, (parent + root) % n, si, off, l, 0})
				}
			}
			return ps
		},
	}
}

var runCases = []runCase{
	{
		name:  "ialltoall-linear",
		sizes: func(n, bs int) (int, int) { return n * bs, n * bs },
		build: func(n, me, _, _ int, send, recv mpi.Buf, _ *mpi.Win) *Schedule {
			return Ialltoall(n, me, send, recv, AlgoLinear)
		},
		want: func(n, me, _, bs int) []post {
			var ps []post
			for off := 1; off < n; off++ {
				peer := (me + off) % n
				ps = append(ps, post{0, OpRecv, peer, 0, peer * bs, bs, 0})
			}
			for off := 1; off < n; off++ {
				peer := (me - off + n) % n
				ps = append(ps, post{0, OpSend, peer, 0, peer * bs, bs, 0})
			}
			return ps
		},
	},
	{
		name:  "ialltoall-linear-put",
		put:   true,
		sizes: func(n, bs int) (int, int) { return n * bs, n * bs },
		build: func(n, me, _, _ int, send, recv mpi.Buf, win *mpi.Win) *Schedule {
			return IalltoallLinearPut(n, me, send, recv, win)
		},
		want: func(n, me, _, bs int) []post {
			var ps []post
			for off := 1; off < n; off++ {
				peer := (me + off) % n
				ps = append(ps, post{0, OpPut, peer, 0, peer * bs, bs, me * bs})
			}
			return ps
		},
	},
	{
		name:  "iallgather-linear",
		sizes: func(n, bs int) (int, int) { return bs, n * bs },
		build: func(n, me, _, _ int, send, recv mpi.Buf, _ *mpi.Win) *Schedule {
			return Iallgather(n, me, send, recv, AllgatherLinear)
		},
		want: func(n, me, _, bs int) []post {
			var ps []post
			for off := 1; off < n; off++ {
				peer := (me + off) % n
				ps = append(ps, post{0, OpRecv, peer, 0, peer * bs, bs, 0})
			}
			for off := 1; off < n; off++ {
				peer := (me - off + n) % n
				ps = append(ps, post{0, OpSend, peer, 0, me * bs, bs, 0})
			}
			return ps
		},
	},
	bcastCase(0),
	bcastCase(1),
	bcastCase(3),
	bcastCase(FanoutBinomial),
	{
		name:  "ibarrier-tree",
		sizes: func(int, int) (int, int) { return 0, 0 },
		build: func(n, me, _, _ int, _, _ mpi.Buf, _ *mpi.Win) *Schedule { return IbarrierTree(n, me) },
		want: func(n, me, _, _ int) []post {
			if n == 1 {
				return nil
			}
			parent, children := bcastTree(n, me, FanoutBinomial)
			var ps []post
			round := 0
			for _, c := range children {
				ps = append(ps, post{round, OpRecv, c, 0, 0, 1, 0})
			}
			if len(children) > 0 {
				round++
			}
			if parent >= 0 {
				ps = append(ps, post{round, OpSend, parent, 0, 0, 1, 0}, post{round + 1, OpRecv, parent, 1, 0, 1, 0})
				round += 2
			}
			for _, c := range children {
				ps = append(ps, post{round, OpSend, c, 1, 0, 1, 0})
			}
			return ps
		},
	},
}

// formRun is what one world reports of a run of every rank's schedule.
type formRun struct {
	events int64
	end    float64
	rx     []int64  // bytes each node's NIC received
	recv   [][]byte // each rank's receive buffer, data mode
}

// runForm runs rc's schedule on every rank of an n-rank world of shards
// engines, as built or with every run expanded into single posts, over
// virtual or real payloads.
func runForm(t *testing.T, rc runCase, n, root, bs int, data bool, shards int, expand bool) formRun {
	t.Helper()
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	var nets []*netmodel.Network
	var win *sim.Windows
	var err error
	if shards > 1 {
		nets, win, err = netmodel.NewSharded(testParams(nil), nodeOf, shards, 1)
	} else {
		var net *netmodel.Network
		net, err = netmodel.New(sim.NewEngine(1), testParams(nil), nodeOf)
		nets = []*netmodel.Network{net}
	}
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(nets, win, n, mpi.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(n)
	w.Observe(rec)
	out := formRun{recv: make([][]byte, n)}
	sendLen, recvLen := rc.sizes(n, bs)
	w.Start(func(c *mpi.Comm) {
		me := c.Rank()
		send, recv := mpi.Virtual(sendLen), mpi.Virtual(recvLen)
		if data {
			s := make([]byte, sendLen)
			if !rc.rooted || me == root {
				confFill(s, uint64(me))
			}
			send, recv = mpi.Bytes(s), mpi.Bytes(make([]byte, recvLen))
		}
		var win *mpi.Win
		if rc.put {
			win = IalltoallWindows(c, recv)
		}
		s := rc.build(n, me, root, bs, send, recv, win)
		if expand {
			s = singles(s, n)
		}
		Run(c, s)
		if rc.rooted {
			recv = send // a broadcast receives into its one buffer
		}
		out.recv[me] = recv.Data()
	})
	w.Run()
	out.events, out.end = w.EventsFired(), w.Now()
	for _, nic := range rec.Metrics().NIC {
		out.rx = append(out.rx, nic.RxBytes)
	}
	return out
}

// TestRunsPostLikeSingles holds every builder that emits runs to the posts it
// made when each post was an entry of its own: expanded into single posts,
// each rank's schedule posts the same (kind, peer, tag, offset, length)
// sequence, round by round, as the reference loops below, at every root; and
// at every size a world running the runs and one running their expansion
// fire the same events, end at the same virtual time and receive the same
// bytes, over virtual and real payloads, on one engine and on two shards,
// rooted at n/2, where a broadcast's runs of children wrap past the last
// rank. Blocks are rendezvous up to 7 ranks and eager above.
func TestRunsPostLikeSingles(t *testing.T) {
	for _, rc := range runCases {
		for _, n := range []int{1, 2, 3, 7, 16, 64} {
			bs := 1000
			if n <= 7 {
				bs = 13 * 1024
			}
			roots := []int{0}
			if rc.rooted {
				roots = make([]int, n)
				for i := range roots {
					roots[i] = i
				}
			}
			for _, root := range roots {
				sendLen, recvLen := rc.sizes(n, bs)
				for me := 0; me < n; me++ {
					s := rc.build(n, me, root, bs, mpi.Virtual(sendLen), mpi.Virtual(recvLen), nil)
					got, want := postsOf(t, singles(s, n)), rc.want(n, me, root, bs)
					if !slices.Equal(got, want) {
						t.Fatalf("%s n=%d root=%d rank %d posts\n%v\nwant\n%v", rc.name, n, root, me, got, want)
					}
				}
				if root != n/2 && rc.rooted {
					continue // one world per size; its root's runs wrap
				}
				for _, data := range []bool{false, true} {
					for _, shards := range []int{1, 2} {
						shards = min(shards, n)
						runs := runForm(t, rc, n, root, bs, data, shards, false)
						one := runForm(t, rc, n, root, bs, data, shards, true)
						where := fmt.Sprintf("%s n=%d root=%d data=%v shards=%d", rc.name, n, root, data, shards)
						if runs.events != one.events || runs.end != one.end {
							t.Fatalf("%s: runs fire %d events ending at %.17g, single posts %d ending at %.17g",
								where, runs.events, runs.end, one.events, one.end)
						}
						if !slices.Equal(runs.rx, one.rx) {
							t.Fatalf("%s: nodes receive %v bytes from runs, %v from single posts", where, runs.rx, one.rx)
						}
						for me := range runs.recv {
							if !bytes.Equal(runs.recv[me], one.recv[me]) {
								t.Fatalf("%s: rank %d receives other bytes from runs than from single posts", where, me)
							}
						}
					}
				}
			}
		}
	}
}
