package core

import (
	"fmt"
	"strings"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
)

// The op catalogue: every tunable operation the drivers know, defined once
// as data — its name, how its buffers are sized from the communicator size
// and the payload parameter, the constructor of its function set, the
// guideline mocks that may extend the set (mocks.go), and the data pattern a
// correct run delivers. cmd/tune's -op, the micro-benchmark's MicroSpec.Op
// and the guideline engine's expression leaves all resolve through OpByName,
// so an operation added here is tunable, benchmarkable and auditable at once.

// Blocks sizes one buffer of an operation in units of the payload parameter
// msg: total bytes for ibcast, bytes per rank pair for ialltoall, bytes per
// rank block for iallgather, vector bytes for the reductions.
type Blocks int

const (
	NoBuf        Blocks = iota // the operation has no such buffer
	OneBlock                   // msg bytes
	BlockPerRank               // n*msg bytes
)

func (b Blocks) bytes(n, msg int) int {
	switch b {
	case OneBlock:
		return msg
	case BlockPerRank:
		return n * msg
	}
	return 0
}

// Pattern declares the bytes a correct run delivers, over the deterministic
// stream patByte(src, dst, k): rank me stamps every msg-byte block of its
// send buffer with stream (me, dst) and must then find stream (j, dst) in
// block j of its receive buffer.
type Pattern struct {
	// Personalized operations address each block to one rank: dst is the
	// block index when stamping and the receiver when checking. Otherwise
	// every block carries dst 0.
	Personalized bool
	// Rooted operations deliver the root's data only: the root alone stamps,
	// and every block is checked against the root's stream.
	Rooted bool
}

func patByte(src, dst, k int) byte { return byte(src*131 + dst*31 + k) }

// Op is one operation of the catalogue.
type Op struct {
	Name string
	// Send and Recv size the two buffers. An operation without a receive
	// buffer works in place: its set is built over the send buffer alone,
	// which is also where the result is checked.
	Send, Recv Blocks
	// PerSize marks sets whose shape — which functions exist — depends on
	// the communicator size, so a host-side copy must be built at the real
	// rank count rather than on a small stand-in.
	PerSize bool
	// Pattern is nil for operations whose result depends on more than who
	// sent what (reductions, halo exchanges); data verification is refused
	// for those.
	Pattern *Pattern
	// SegSize is the smallest segment the set's schedules pipeline the
	// payload in, one tag offset per segment; 0 for unsegmented sets.
	SegSize int

	build func(c *mpi.Comm, send, recv mpi.Buf, root int) (*FunctionSet, error)
}

// set adapts an infallible two-buffer constructor to Op.build.
func set(f func(c *mpi.Comm, send, recv mpi.Buf) *FunctionSet) func(*mpi.Comm, mpi.Buf, mpi.Buf, int) (*FunctionSet, error) {
	return func(c *mpi.Comm, send, recv mpi.Buf, _ int) (*FunctionSet, error) { return f(c, send, recv), nil }
}

// rooted adapts an in-place rooted constructor to Op.build.
func rooted(f func(c *mpi.Comm, root int, buf mpi.Buf) *FunctionSet) func(*mpi.Comm, mpi.Buf, mpi.Buf, int) (*FunctionSet, error) {
	return func(c *mpi.Comm, buf, _ mpi.Buf, root int) (*FunctionSet, error) { return f(c, root, buf), nil }
}

var (
	personalized = &Pattern{Personalized: true}
	gathered     = &Pattern{}
	fromRoot     = &Pattern{Rooted: true}
)

// ops is the catalogue, in the order help texts list it.
var ops = []*Op{
	{Name: "ialltoall", Send: BlockPerRank, Recv: BlockPerRank, Pattern: personalized,
		build: set(func(c *mpi.Comm, send, recv mpi.Buf) *FunctionSet { return IalltoallSet(c, send, recv, false) })},
	{Name: "ialltoall-ext", Send: BlockPerRank, Recv: BlockPerRank, Pattern: personalized,
		build: set(func(c *mpi.Comm, send, recv mpi.Buf) *FunctionSet { return IalltoallSet(c, send, recv, true) })},
	{Name: "ialltoall-prim", Send: BlockPerRank, Recv: BlockPerRank, Pattern: personalized,
		build: set(IalltoallPrimitivesSet)},
	{Name: "ibcast", Send: OneBlock, Pattern: fromRoot, SegSize: nbc.DefaultSegSizes[0], build: rooted(IbcastSet)},
	{Name: "ibcast-scalable", Send: OneBlock, Pattern: fromRoot, SegSize: nbc.DefaultSegSizes[0], build: rooted(IbcastScalableSet)},
	{Name: "iallgather", Send: OneBlock, Recv: BlockPerRank, Pattern: gathered, build: set(IallgatherSet)},
	{Name: "iallgather-scalable", Send: OneBlock, Recv: BlockPerRank, Pattern: gathered, build: set(IallgatherScalableSet)},
	{Name: "ireduce", Send: OneBlock, Recv: OneBlock,
		build: func(c *mpi.Comm, send, recv mpi.Buf, root int) (*FunctionSet, error) {
			return IreduceSet(c, root, send, recv, nil), nil
		}},
	{Name: "iallreduce", Send: OneBlock, Recv: OneBlock, PerSize: true,
		build: set(func(c *mpi.Comm, send, recv mpi.Buf) *FunctionSet { return IallreduceSet(c, send, recv, nil) })},
	// A barrier moves no payload: the empty pattern holds trivially.
	{Name: "ibarrier", Pattern: gathered,
		build: set(func(c *mpi.Comm, _, _ mpi.Buf) *FunctionSet { return IbarrierSet(c) })},
	{Name: "neighborhood", Send: OneBlock, PerSize: true, build: neighborhoodGrid},
}

// neighborhoodGrid builds the halo-exchange set on a square periodic process
// grid whose local field has msg/8 columns of 8-byte cells (timing only).
func neighborhoodGrid(c *mpi.Comm, row, _ mpi.Buf, _ int) (*FunctionSet, error) {
	g := 1
	for (g+1)*(g+1) <= c.Size() {
		g++
	}
	if g*g != c.Size() {
		return nil, fmt.Errorf("neighborhood needs a square rank count, have %d", c.Size())
	}
	cols := row.Len() / 8
	if cols < 4 {
		cols = 4
	}
	halo, err := Grid2D(c, g, g, cols, cols, 8, mpi.Buf{})
	if err != nil {
		return nil, err
	}
	return NeighborhoodSet(c, halo)
}

// OpNames lists the catalogue in definition order.
func OpNames() []string {
	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = o.Name
	}
	return names
}

// OpByName looks an operation up; the error of a miss lists the catalogue.
func OpByName(name string) (*Op, error) {
	for _, o := range ops {
		if o.Name == name {
			return o, nil
		}
	}
	return nil, fmt.Errorf("unknown operation %q (have %s)", name, strings.Join(OpNames(), ", "))
}

// CheckSize refuses a payload parameter the operation cannot run at on n
// ranks: more segments than a schedule has tags, or a buffer larger than a
// schedule addresses (nbc.MaxPayload, just under 2 GiB).
func (o *Op) CheckSize(n, msg int) error {
	if o.SegSize > 0 {
		if err := nbc.CheckSegments(msg, o.SegSize); err != nil {
			return err
		}
	}
	for _, b := range [...]Blocks{o.Send, o.Recv} {
		if per := b.bytes(n, 1); per > 0 && msg > nbc.MaxPayload/per {
			size := fmt.Sprintf("%d bytes", msg)
			if b == BlockPerRank {
				size = fmt.Sprintf("%d ranks x %d bytes", n, msg)
			}
			return fmt.Errorf("%s overflows the %d bytes a schedule addresses", size, nbc.MaxPayload)
		}
	}
	return nil
}

// Buffers allocates the operation's buffers for an n-rank communicator at
// payload parameter msg: alloc is mpi.Virtual for timing-only runs, or a
// real allocator for data verification. An in-place operation gets one
// buffer, returned as both.
func (o *Op) Buffers(n, msg int, alloc func(int) mpi.Buf) (send, recv mpi.Buf) {
	if o.Send != NoBuf {
		send = alloc(o.Send.bytes(n, msg))
	}
	if o.Recv == NoBuf {
		return send, send
	}
	return send, alloc(o.Recv.bytes(n, msg))
}

// Build compiles the operation's function set on c over buffers obtained
// from Buffers, extended with the named guideline mocks (none: exactly the
// built-in set).
func (o *Op) Build(c *mpi.Comm, send, recv mpi.Buf, root int, mocks []string) (*FunctionSet, error) {
	fs, err := o.build(c, send, recv, root)
	if err == nil {
		err = o.appendMocks(fs, mocks, c, send, recv, root)
	}
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// Set is CheckSize + Buffers + Build with length-only payloads rooted at rank
// 0, the form everything that only compares timings uses.
func (o *Op) Set(c *mpi.Comm, msg int, mocks []string) (*FunctionSet, error) {
	if err := o.CheckSize(c.Size(), msg); err != nil {
		return nil, err
	}
	send, recv := o.Buffers(c.Size(), msg, mpi.Virtual)
	return o.Build(c, send, recv, 0, mocks)
}

// Fill stamps rank me's send buffer with the operation's pattern.
func (o *Op) Fill(me, root, msg int, send mpi.Buf) {
	if o.Pattern.Rooted && me != root {
		return
	}
	for j := 0; j*msg < send.Len(); j++ {
		dst := 0
		if o.Pattern.Personalized {
			dst = j
		}
		b := send.Slice(j*msg, msg).Data()
		for k := range b {
			b[k] = patByte(me, dst, k)
		}
	}
}

// Check verifies that rank me's receive buffer holds what a correct run of
// the operation delivers from buffers stamped by Fill.
func (o *Op) Check(me, root, msg int, recv mpi.Buf) error {
	for j := 0; j*msg < recv.Len(); j++ {
		src, dst := j, 0
		if o.Pattern.Rooted {
			src = root
		}
		if o.Pattern.Personalized {
			dst = me
		}
		for k, got := range recv.Slice(j*msg, msg).Data() {
			if got != patByte(src, dst, k) {
				return fmt.Errorf("%s data mismatch at rank %d block %d byte %d", o.Name, me, j, k)
			}
		}
	}
	return nil
}
