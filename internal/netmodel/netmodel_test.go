package netmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nbctune/internal/chaos"
	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

func testParams() Params {
	return Params{
		Name:          "test",
		Latency:       5e-6,
		Bandwidth:     1e9,
		NICs:          1,
		OSend:         1e-6,
		ORecv:         1e-6,
		OProgress:     1e-6,
		EagerLimit:    16 * 1024,
		RDMA:          true,
		CtrlBytes:     64,
		CopyBandwidth: 4e9,
		ShmLatency:    3e-7,
		ShmBandwidth:  6e9,
		IncastK:       4,
		IncastBeta:    0.1,
	}
}

func mustNet(t *testing.T, p Params, nodeOf []int) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	n, err := New(eng, p, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

func TestValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Bandwidth = 0 },
		func(p *Params) { p.NICs = 0 },
		func(p *Params) { p.Latency = -1 },
		func(p *Params) { p.EagerLimit = -1 },
		func(p *Params) { p.CopyBandwidth = 0 },
		func(p *Params) { p.IncastBeta = -0.5 },
	}
	for i, mutate := range cases {
		p := testParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestSingleTransferTime(t *testing.T) {
	p := testParams()
	eng, n := mustNet(t, p, []int{0, 1})
	var arrived float64
	n.Transfer(0, 1, 1000, func(any) { arrived = eng.Now() }, nil)
	eng.Run()
	// tx occupies [0, 1e-6]; rx starts at latency after tx start.
	want := p.Latency + 1000/p.Bandwidth
	if math.Abs(arrived-want) > 1e-12 {
		t.Fatalf("arrival = %g, want %g", arrived, want)
	}
}

func TestIntraNodeTransfer(t *testing.T) {
	p := testParams()
	eng, n := mustNet(t, p, []int{0, 0})
	var arrived float64
	n.Transfer(0, 1, 6000, func(any) { arrived = eng.Now() }, nil)
	eng.Run()
	want := p.ShmLatency + 6000/p.ShmBandwidth
	if math.Abs(arrived-want) > 1e-12 {
		t.Fatalf("arrival = %g, want %g", arrived, want)
	}
	if n.Splits(0, 1) || !n.Owns(0) || !n.Owns(1) {
		t.Fatal("a sequential network splits a transfer or disowns a rank")
	}
}

func TestTxSerialization(t *testing.T) {
	p := testParams()
	eng, n := mustNet(t, p, []int{0, 1, 2})
	var a1, a2 float64
	n.Transfer(0, 1, 1_000_000, func(any) { a1 = eng.Now() }, nil)
	n.Transfer(0, 2, 1_000_000, func(any) { a2 = eng.Now() }, nil)
	eng.Run()
	wire := 1_000_000 / p.Bandwidth
	// Second transfer must wait for the sender NIC: starts at wire, arrives
	// at 2*wire + L.
	if math.Abs(a1-(p.Latency+wire)) > 1e-9 {
		t.Fatalf("first arrival %g, want %g", a1, p.Latency+wire)
	}
	if math.Abs(a2-(p.Latency+2*wire)) > 1e-9 {
		t.Fatalf("second arrival %g, want %g (tx serialization)", a2, p.Latency+2*wire)
	}
}

func TestMultiNICParallelism(t *testing.T) {
	p := testParams()
	p.NICs = 2
	eng, n := mustNet(t, p, []int{0, 1, 2})
	var a1, a2 float64
	n.Transfer(0, 1, 1_000_000, func(any) { a1 = eng.Now() }, nil)
	n.Transfer(0, 2, 1_000_000, func(any) { a2 = eng.Now() }, nil)
	eng.Run()
	wire := 1_000_000 / p.Bandwidth
	if math.Abs(a1-(p.Latency+wire)) > 1e-9 || math.Abs(a2-(p.Latency+wire)) > 1e-9 {
		t.Fatalf("arrivals %g %g, want both %g (two NICs run in parallel)", a1, a2, p.Latency+wire)
	}
}

func TestRxSerializationManySenders(t *testing.T) {
	p := testParams()
	p.IncastBeta = 0 // isolate serialization from congestion
	nodeOf := []int{0, 1, 2, 3, 4}
	eng, n := mustNet(t, p, nodeOf)
	last := 0.0
	for s := 1; s < 5; s++ {
		n.Transfer(s, 0, 1_000_000, func(any) {
			if eng.Now() > last {
				last = eng.Now()
			}
		}, nil)
	}
	eng.Run()
	wire := 1_000_000 / p.Bandwidth
	want := p.Latency + 4*wire // rx channel serializes 4 inbound megabyte flows
	if math.Abs(last-want) > 1e-9 {
		t.Fatalf("last arrival %g, want %g", last, want)
	}
}

func TestIncastCongestionPenalty(t *testing.T) {
	run := func(beta float64, senders int) float64 {
		p := testParams()
		p.IncastK = 1
		p.IncastBeta = beta
		nodeOf := make([]int, senders+1)
		for i := 1; i <= senders; i++ {
			nodeOf[i] = i
		}
		eng := sim.NewEngine(1)
		n, err := New(eng, p, nodeOf)
		if err != nil {
			t.Fatal(err)
		}
		last := 0.0
		for s := 1; s <= senders; s++ {
			n.Transfer(s, 0, 100_000, func(any) {
				if eng.Now() > last {
					last = eng.Now()
				}
			}, nil)
		}
		eng.Run()
		return last
	}
	clean := run(0, 8)
	congested := run(0.5, 8)
	if congested <= clean {
		t.Fatalf("incast penalty absent: congested %g <= clean %g", congested, clean)
	}
	single := run(0.5, 1)
	p := testParams()
	if math.Abs(single-(p.Latency+100_000/p.Bandwidth)) > 1e-9 {
		t.Fatalf("single flow should see no congestion, got %g", single)
	}
}

func TestCtrlBypassesBulk(t *testing.T) {
	p := testParams()
	eng, n := mustNet(t, p, []int{0, 1})
	var ctrlAt, bulkAt float64
	n.Transfer(0, 1, 10_000_000, func(any) { bulkAt = eng.Now() }, nil)
	n.CtrlH(0, 1, eng.Handle(func(_, _ int32) { ctrlAt = eng.Now() }), 0, 0)
	eng.Run()
	if ctrlAt >= bulkAt {
		t.Fatalf("ctrl message (%g) should not queue behind 10MB bulk (%g)", ctrlAt, bulkAt)
	}
	want := p.Latency + float64(p.CtrlBytes)/p.Bandwidth
	if math.Abs(ctrlAt-want) > 1e-12 {
		t.Fatalf("ctrl arrival %g, want %g", ctrlAt, want)
	}
}

func TestEagerThreshold(t *testing.T) {
	p := testParams()
	if !p.Eager(p.EagerLimit) {
		t.Fatal("message at the eager limit should be eager")
	}
	if p.Eager(p.EagerLimit + 1) {
		t.Fatal("message above the eager limit should use rendezvous")
	}
}

// Property: arrival time is never before latency + bytes/bandwidth and never
// decreases when the same flow is scheduled after other traffic.
func TestTransferLowerBoundProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		if len(sizes) == 0 || len(sizes) > 64 {
			return true
		}
		p := testParams()
		eng := sim.NewEngine(1)
		n, err := New(eng, p, []int{0, 1})
		if err != nil {
			return false
		}
		ok := true
		for _, s := range sizes {
			bytes := int(s%1_000_000) + 1
			lower := eng.Now() + p.Latency + p.MsgGap + float64(bytes)/p.Bandwidth
			at := n.Transfer(0, 1, bytes, func(any) {}, nil)
			if at < lower-1e-12 {
				ok = false
			}
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// Property: with one NIC, total completion of k equal transfers from one
// sender is at least k * wire time (work conservation under serialization).
func TestWorkConservationProperty(t *testing.T) {
	f := func(k8 uint8) bool {
		k := int(k8%16) + 1
		p := testParams()
		p.IncastBeta = 0
		nodeOf := make([]int, k+1)
		for i := 1; i <= k; i++ {
			nodeOf[i] = i
		}
		eng := sim.NewEngine(1)
		n, _ := New(eng, p, nodeOf)
		last := 0.0
		for i := 1; i <= k; i++ {
			n.Transfer(0, i, 500_000, func(any) {
				if eng.Now() > last {
					last = eng.Now()
				}
			}, nil)
		}
		eng.Run()
		return last >= float64(k)*500_000/p.Bandwidth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

// TestCountersAdvance: Transfers counts Transfer calls, and the recorder, not
// a counter of the network, reports the bytes on the wire; a control message
// occupies no NIC.
func TestCountersAdvance(t *testing.T) {
	p := testParams()
	eng, n := mustNet(t, p, []int{0, 1})
	rec := obs.NewRecorder(2)
	rec.EnsureNodes(2)
	n.SetRecorder(rec)
	n.Transfer(0, 1, 1234, func(any) {}, nil)
	n.CtrlH(1, 0, eng.Handle(func(_, _ int32) {}), 0, 0)
	eng.Run()
	if n.Transfers != 1 {
		t.Fatalf("Transfers = %d, want 1", n.Transfers)
	}
	nic := rec.Metrics().NIC
	if len(nic) != 2 || nic[0].TxBytes != 1234 || nic[0].RxBytes != 0 || nic[1].RxBytes != 1234 || nic[1].TxBytes != 0 {
		t.Fatalf("recorded NIC bytes %+v, want 1234 out of node 0 into node 1", nic)
	}
}

func TestTorusHops(t *testing.T) {
	p := testParams()
	p.Topology = Torus3D
	p.TorusDims = [3]int{4, 4, 2}
	p.HopLatency = 1e-7
	_, n := mustNet(t, p, []int{0})
	topo := n.Topo()
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},  // +x neighbor
		{0, 3, 1},  // wraparound in x (dim 4: dist(0,3)=1)
		{0, 4, 1},  // +y neighbor
		{0, 16, 1}, // +z neighbor
		{0, 2, 2},  // x distance 2
		{0, 21, 3}, // (1,1,1): 1+1+1
	}
	for _, c := range cases {
		if got := topo.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Symmetry property.
	for a := 0; a < 32; a++ {
		for b := 0; b < 32; b++ {
			if topo.Hops(a, b) != topo.Hops(b, a) {
				t.Fatalf("hops not symmetric for (%d,%d)", a, b)
			}
		}
	}
}

func TestTorusLatencyGrowsWithDistance(t *testing.T) {
	p := testParams()
	p.Topology = Torus3D
	p.TorusDims = [3]int{8, 8, 4}
	p.HopLatency = 1e-7
	_, n := mustNet(t, p, []int{0})
	near := n.wireLatency(0, 1)         // 1 hop
	far := n.wireLatency(0, 2+8*2+64*2) // (2,2,2): 6 hops
	if near != p.Latency {
		t.Fatalf("single hop latency %g, want base %g", near, p.Latency)
	}
	want := p.Latency + 5*p.HopLatency
	if math.Abs(far-want) > 1e-15 {
		t.Fatalf("6-hop latency %g, want %g", far, want)
	}
	// End-to-end: transfers to distant nodes arrive later.
	eng := sim.NewEngine(1)
	net, err := New(eng, p, []int{0, 1, 2 + 8*2 + 64*2})
	if err != nil {
		t.Fatal(err)
	}
	var aNear, aFar float64
	net.Transfer(0, 1, 1000, func(any) { aNear = eng.Now() }, nil)
	eng.Run()
	eng2 := sim.NewEngine(1)
	net2, _ := New(eng2, p, []int{0, 1, 2 + 8*2 + 64*2})
	net2.Transfer(0, 2, 1000, func(any) { aFar = eng2.Now() }, nil)
	eng2.Run()
	if aFar <= aNear {
		t.Fatalf("distant transfer (%g) not slower than near (%g)", aFar, aNear)
	}
}

func TestTorusValidation(t *testing.T) {
	p := testParams()
	p.Topology = Torus3D
	if err := p.Validate(); err == nil {
		t.Fatal("torus without dims accepted")
	}
	p.TorusDims = [3]int{4, 4, 2}
	p.HopLatency = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative hop latency accepted")
	}
}

func TestChaosDeliveryPreservesChannelOrder(t *testing.T) {
	// Jitter and time-varying link factors may delay messages but must not
	// let one overtake an earlier send on the same directed rank pair: the
	// mpi matcher relies on MPI's non-overtaking guarantee.
	prof := chaos.Profile{
		Name:       "fifo-test",
		JitterMean: 5e-4, // huge vs per-message wire time: reorders without the clamp
		Shifts: []chaos.Shift{
			{At: 1e-4, LatencyFactor: 20, BandwidthFactor: 0.05},
			{At: 2e-4, LatencyFactor: 1, BandwidthFactor: 1},
		},
	}
	in, err := chaos.NewInjector(prof, 99, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, lane := range []string{"bulk", "ctrl"} {
		t.Run(lane, func(t *testing.T) {
			eng, n := mustNet(t, testParams(), []int{0, 1})
			n.SetChaos(in)
			const msgs = 64
			var order []int
			deliver := eng.Handle(func(i, _ int32) { order = append(order, int(i)) })
			for i := 0; i < msgs; i++ {
				eng.At(float64(i)*1e-5, func() {
					if lane == "bulk" {
						n.TransferH(0, 1, 256, deliver, int32(i), 0)
					} else {
						n.CtrlH(0, 1, deliver, int32(i), 0)
					}
				})
			}
			eng.Run()
			if len(order) != msgs {
				t.Fatalf("delivered %d of %d messages", len(order), msgs)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("%s lane reordered under chaos: position %d delivered message %d", lane, i, got)
				}
			}
		})
	}
}

// TestShardedViewsSplitAndOwn pins the two questions the MPI layer asks a
// view: a sharded view splits exactly the transfers between nodes, and a
// rank is owned by the view of its node's shard alone.
func TestShardedViewsSplitAndOwn(t *testing.T) {
	shardOfRank := []int{0, 0, 1} // ranks 0 and 1 on node 0, rank 2 on node 1
	nets, _, err := NewSharded(testParams(), []int{0, 0, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s, n := range nets {
		if n.Splits(0, 1) || !n.Splits(0, 2) || !n.Splits(2, 1) {
			t.Errorf("view %d: Splits(0,1), (0,2), (2,1) = %v, %v, %v; want false, true, true", s, n.Splits(0, 1), n.Splits(0, 2), n.Splits(2, 1))
		}
		for rank, shard := range shardOfRank {
			if n.Owns(rank) != (s == shard) {
				t.Errorf("view %d: Owns(%d) = %v, rank is on shard %d", s, rank, n.Owns(rank), shard)
			}
		}
	}
}

// TestShardedPartition is the table test of the one partition, NewSharded's:
// the shard count is clamped to the nodes the placement uses, every view
// owns a contiguous range of nodes with all of their ranks, the ranges cover
// the used nodes in shard order, and their sizes differ by at most one node.
// A zero latency leaves no lookahead and is refused.
func TestShardedPartition(t *testing.T) {
	cyclic := func(ranks, nodes int) []int {
		nodeOf := make([]int, ranks)
		for r := range nodeOf {
			nodeOf[r] = r % nodes
		}
		return nodeOf
	}
	block := func(ranks, perNode int) []int {
		nodeOf := make([]int, ranks)
		for r := range nodeOf {
			nodeOf[r] = r / perNode
		}
		return nodeOf
	}
	rows := []struct {
		name       string
		nodeOf     []int
		shards     int
		wantShards int
	}{
		{"one shard", block(8, 2), 1, 1},
		{"even split", block(16, 2), 4, 4},
		{"uneven split", block(14, 2), 3, 3},    // 7 nodes: 2, 2, 3
		{"clamped to nodes", block(6, 2), 8, 3}, // 3 nodes
		{"one rank per node", cyclic(5, 16), 2, 2},
		{"cyclic, several ranks per node", cyclic(12, 5), 4, 4},
		{"more shards than nodes", cyclic(3, 3), 64, 3},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nets, ws, err := NewSharded(testParams(), row.nodeOf, row.shards, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(nets) != row.wantShards || ws.Shards() != row.wantShards {
				t.Fatalf("%d views and %d window shards, want %d", len(nets), ws.Shards(), row.wantShards)
			}
			used := 0
			for _, nd := range row.nodeOf {
				used = max(used, nd+1)
			}
			shardOf := make([]int, used) // node -> the one view owning its ranks
			for nd := range shardOf {
				shardOf[nd] = -1
			}
			for rank, nd := range row.nodeOf {
				owners := 0
				for s, n := range nets {
					if n.Owns(rank) {
						owners++
						if shardOf[nd] >= 0 && shardOf[nd] != s {
							t.Fatalf("node %d's ranks are split over views %d and %d", nd, shardOf[nd], s)
						}
						shardOf[nd] = s
					}
				}
				if owners != 1 {
					t.Fatalf("rank %d is owned by %d views", rank, owners)
				}
			}
			size := make([]int, len(nets))
			for nd, s := range shardOf {
				if nd > 0 && s != shardOf[nd-1] && s != shardOf[nd-1]+1 {
					t.Fatalf("node %d on view %d follows node %d on view %d: ranges not contiguous", nd, s, nd-1, shardOf[nd-1])
				}
				size[s]++
			}
			lo, hi := size[0], size[0]
			for _, n := range size {
				lo, hi = min(lo, n), max(hi, n)
			}
			if lo == 0 || hi-lo > 1 {
				t.Errorf("views own %v nodes: want each at least one and within one of each other", size)
			}
		})
	}
	p := testParams()
	p.Latency = 0
	if _, _, err := NewSharded(p, block(4, 2), 2, 1); err == nil {
		t.Error("a zero latency was accepted as a PDES lookahead")
	}
}

// TestShardedChaosKeepsPairOrder is the sharded form of the test above, with
// sender and receiver on different shards. The barrier merges rx halves by
// wire time, and the shift back down to the clean latency gives later sends
// earlier wires than the ones before the shift: without the sender's clamp
// on each pair's wire time those rx halves would reserve the receiver's NIC
// first and deliver first. Delivery must follow send order with arrivals
// strictly rising, on both lanes.
func TestShardedChaosKeepsPairOrder(t *testing.T) {
	prof := chaos.Profile{
		Name:       "fifo-test",
		JitterMean: 5e-4,
		Shifts: []chaos.Shift{
			{At: 1e-4, LatencyFactor: 20, BandwidthFactor: 0.05},
			{At: 2e-4, LatencyFactor: 1, BandwidthFactor: 1},
		},
	}
	for _, lane := range []string{"bulk", "ctrl"} {
		t.Run(lane, func(t *testing.T) {
			nets, ws, err := NewSharded(testParams(), []int{0, 1}, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			engs := []*sim.Engine{nets[0].Engine(), nets[1].Engine()}
			for _, n := range nets {
				in, err := chaos.NewInjector(prof, 99, 2, 2)
				if err != nil {
					t.Fatal(err)
				}
				n.SetChaos(in)
			}
			const msgs = 64
			var order []int
			var at []float64
			// Registered on both engines at the same place: a delivery's
			// handler resolves on the receiving shard's engine.
			onArrival := func(i, _ int32) { order, at = append(order, int(i)), append(at, engs[1].Now()) }
			deliver := engs[0].Handle(onArrival)
			if h := engs[1].Handle(onArrival); h != deliver {
				t.Fatalf("delivery handler registered as %d and %d", deliver, h)
			}
			for i := 0; i < msgs; i++ {
				engs[0].At(float64(i)*1e-5, func() {
					if lane == "bulk" {
						nets[0].TransferH(0, 1, 256, deliver, int32(i), 0)
					} else {
						nets[0].CtrlH(0, 1, deliver, int32(i), 0)
					}
				})
			}
			ws.Run()
			if len(order) != msgs {
				t.Fatalf("delivered %d of %d messages", len(order), msgs)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("%s lane reordered under chaos on shards: position %d delivered message %d", lane, i, got)
				}
				if i > 0 && !(at[i] > at[i-1]) {
					t.Fatalf("%s lane: message %d arrived at %g, not after message %d at %g", lane, i, at[i], i-1, at[i-1])
				}
			}
		})
	}
}
