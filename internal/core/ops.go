package core

import (
	"fmt"
	"strings"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
)

// The op catalogue: every tunable operation the drivers know, defined once
// as data — its name, how its buffers are sized from the communicator size
// and the payload parameter, the declaration of its function set, the
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
	// Pattern is nil for operations whose result depends on more than who
	// sent what (reductions, halo exchanges); data verification is refused
	// for those.
	Pattern *Pattern
	// SegSize is the smallest segment the set's schedules pipeline the
	// payload in, one tag offset per segment; 0 for unsegmented sets.
	SegSize int

	// decl declares the operation's set on n ranks, or says why there is
	// none: most sets have one shape at every size.
	decl func(n int) (*setDecl, error)
}

// always declares d at every rank count.
func always(d *setDecl) func(int) (*setDecl, error) {
	return func(int) (*setDecl, error) { return d, nil }
}

var (
	personalized = &Pattern{Personalized: true}
	gathered     = &Pattern{}
	fromRoot     = &Pattern{Rooted: true}
)

// ops is the catalogue, in the order help texts list it.
var ops = []*Op{
	{Name: "ialltoall", Send: BlockPerRank, Recv: BlockPerRank, Pattern: personalized, decl: always(ialltoallSet)},
	{Name: "ialltoall-ext", Send: BlockPerRank, Recv: BlockPerRank, Pattern: personalized, decl: always(ialltoallExtSet)},
	{Name: "ialltoall-prim", Send: BlockPerRank, Recv: BlockPerRank, Pattern: personalized, decl: always(ialltoallPrimSet)},
	{Name: "ibcast", Send: OneBlock, Pattern: fromRoot, SegSize: nbc.DefaultSegSizes[0], decl: always(ibcastSet)},
	{Name: "ibcast-scalable", Send: OneBlock, Pattern: fromRoot, SegSize: nbc.DefaultSegSizes[0], decl: always(ibcastScalableSet)},
	{Name: "iallgather", Send: OneBlock, Recv: BlockPerRank, Pattern: gathered, decl: always(iallgatherSet)},
	{Name: "iallgather-scalable", Send: OneBlock, Recv: BlockPerRank, Pattern: gathered, decl: always(iallgatherScalableSet)},
	{Name: "ireduce", Send: OneBlock, Recv: OneBlock, decl: always(ireduceSet)},
	{Name: "iallreduce", Send: OneBlock, Recv: OneBlock, decl: func(n int) (*setDecl, error) {
		if nbc.IallreduceName(n, nbc.AllreduceRecursiveDoubling) == nbc.IallreduceName(n, nbc.AllreduceReduceBcast) {
			return iallreduceFallbackSet, nil
		}
		return iallreduceSet, nil
	}},
	// A barrier moves no payload: the empty pattern holds trivially.
	{Name: "ibarrier", Pattern: gathered, decl: always(ibarrierSet)},
	{Name: "neighborhood", Send: OneBlock, decl: func(n int) (*setDecl, error) {
		if gridSide(n) == 0 {
			return nil, fmt.Errorf("neighborhood needs a square rank count, have %d", n)
		}
		return neighborhoodGridSet, nil
	}},
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

// CheckSize refuses a rank count the operation declares no set for, and a
// payload parameter it cannot run at on n ranks: more segments than a
// schedule has tags, or a buffer larger than a schedule addresses
// (nbc.MaxPayload, just under 2 GiB).
func (o *Op) CheckSize(n, msg int) error {
	if _, err := o.decl(n); err != nil {
		return err
	}
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

// Build binds the operation's function set on c over buffers obtained from
// Buffers, extended with the named guideline mocks (none: exactly the
// built-in set).
func (o *Op) Build(c *mpi.Comm, send, recv mpi.Buf, root int, mocks []string) (*FunctionSet, error) {
	d, err := o.decl(c.Size())
	if err != nil {
		return nil, err
	}
	b := bind(c, send, recv, root, d)
	if d.hook != nil {
		if err := d.hook(b); err != nil {
			return nil, err
		}
	}
	return o.appendMocks(b, mocks)
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

// Shape is the set Set builds on n ranks at payload parameter msg, taken
// from its declaration alone: the names and attributes a host lists, tunes
// over and replays, with functions that must never start.
func (o *Op) Shape(n, msg int, mocks []string) (*FunctionSet, error) {
	if err := o.CheckSize(n, msg); err != nil {
		return nil, err
	}
	d, _ := o.decl(n)
	return o.appendMocks(bind(nil, mpi.Buf{}, mpi.Buf{}, 0, d), mocks)
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
