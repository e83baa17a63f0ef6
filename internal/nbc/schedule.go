// Package nbc implements non-blocking collective operations in the style of
// LibNBC (Hoefler et al., SC'07), the library the paper builds on — layer S4
// of the substitution map (DESIGN.md §1).
//
// Each collective algorithm compiles, per rank, into a Schedule: an ordered
// list of rounds, each round holding point-to-point operations and local
// work (copies, reductions). A round acts as a local barrier — everything in
// round i must complete before round i+1 starts. Executing a schedule is
// non-blocking: Start posts round 0 and returns; the schedule then only
// advances when the application drives Progress (or blocks in Wait). The
// number of rounds in an algorithm therefore determines how many progress
// calls it needs to overlap well — the effect Figs 6 and 7 of the paper
// measure.
//
// Payloads are mpi.Buf descriptors: a schedule built over mpi.Virtual
// buffers simulates timing only (the common case for sweeps), one built
// over mpi.Bytes buffers moves real data for verification. Both compile to
// the identical schedule shape and virtual-time behavior.
package nbc

import (
	"fmt"
	"slices"

	"nbctune/internal/mpi"
)

// OpKind distinguishes schedule entries.
type OpKind uint8

const (
	// OpSend posts a non-blocking send in its round.
	OpSend OpKind = iota
	// OpRecv posts a non-blocking receive in its round.
	OpRecv
	// OpLocal performs local work (copy, pack/unpack, reduction) at round
	// start, charging N/CopyBandwidth of CPU time.
	OpLocal
	// OpPut issues a one-sided put into the schedule's window (the paper's
	// Put/Get data-transfer-primitive attribute).
	OpPut
	// OpAwaitPuts gates the round until N puts (cumulative for this
	// execution) have landed in the schedule's window.
	OpAwaitPuts
)

// posts reports whether entries of kind k post requests: runs of Count.
func (k OpKind) posts() bool { return k == OpSend || k == OpRecv || k == OpPut }

// Op is one entry of a schedule round: its kind plus that kind's arguments,
// as LibNBC stores a schedule entry. It is 32 bytes and holds no pointer, so
// the op array of a schedule, built for a rank on each call, gives the
// collector nothing to trace: a payload is named by its index in the
// schedule's table of base buffers and a byte range of it, local work by its
// index in the schedule's table of functions. A virtual payload has no base
// buffer: its entry names none and carries the length alone. Byte counts are
// int32, so a schedule addresses at most MaxPayload bytes, just under 2 GiB,
// of any buffer (core.Op.CheckSize refuses a larger payload before anything
// is built).
//
// A post entry (OpSend, OpRecv, OpPut) is a run: it posts Count times, to the
// comm ranks Peer, Peer+Step, … taken mod the comm size, all on TagOff. Each
// post carries the Len bytes at Off + peer·Len of buffer Ref, the block of the
// peer it goes to, or the Len bytes at Off for every peer when SameBlock is
// set. A single post is a run of one, so a linear all-to-all is three entries
// whatever the comm size. A Relative entry's Peer is a distance from the
// executing rank, which the executor adds to the rank's comm rank mod the comm
// size, so one entry serves every rank (Ibarrier's shared schedules). N is the
// one further integer a kind reads:
//
//	OpLocal      N is the bytes of local work, charged at CopyBandwidth;
//	             Ref is the work's index in the function table, -1 for none
//	OpPut        N is the byte offset in the target window
//	OpAwaitPuts  N is the cumulative puts expected by this round
//	OpSend/Recv  N is unused
type Op struct {
	kt    uint32 // Kind, SameBlock, Relative and TagOff in one word (see opWord)
	Peer  int32  // first comm rank of the run (send destination / recv source / put target), or its distance from the own rank
	Count int32  // posts in the run
	Step  int32  // comm-rank stride between the run's posts, 0 ≤ Step < comm size
	Ref   int32  // the payload's base buffer, or OpLocal's work; -1: none
	Off   int32  // byte offset of the payload in its base buffer
	Len   int32  // bytes per post
	N     int32  // the kind's argument, as above
}

// The layout of Op.kt: the kind in the low kindBits, the SameBlock and
// Relative flags above it, and the tag offset in the remaining 27 bits. An
// offset that does not fit is stored as tagSat, which lies above
// mpi.NBTagStride, so the executor refuses it as it refuses any offset outside
// the stride.
const (
	kindBits = 3
	sameBit  = 1 << kindBits
	relBit   = sameBit << 1
	tagShift = kindBits + 2
	tagSat   = 1<<(32-tagShift) - 1
)

// opWord packs a kind, the SameBlock flag and a builder's tag offset into
// Op.kt. A tag offset below 0 or above tagSat saturates instead of wrapping
// into range.
func opWord(kind OpKind, same bool, tag int) uint32 {
	if tag < 0 || tag > tagSat {
		tag = tagSat
	}
	w := uint32(kind) | uint32(tag)<<tagShift
	if same {
		w |= sameBit
	}
	return w
}

// Kind is the entry's kind.
func (op Op) Kind() OpKind { return OpKind(op.kt & (sameBit - 1)) }

// SameBlock reports whether every post of the run carries the block at Off.
func (op Op) SameBlock() bool { return op.kt&sameBit != 0 }

// Relative reports whether Peer is a distance from the executing rank rather
// than a comm rank.
func (op Op) Relative() bool { return op.kt&relBit != 0 }

// TagOff is the entry's tag offset within the handle's tag range
// (0..mpi.NBTagStride-1 for an entry the executor accepts).
func (op Op) TagOff() int { return int(op.kt >> tagShift) }

// setTagOff re-tags the entry, saturating like opWord; its flags stay.
func (op *Op) setTagOff(tag int) { op.kt = opWord(op.Kind(), op.SameBlock(), tag) | op.kt&relBit }

// MaxPayload is the largest buffer, in bytes, a schedule addresses: an entry
// holds byte counts and offsets as int32, as mpi's protocol records hold a
// message's length.
const MaxPayload = mpi.MaxPayload

// i32 narrows a byte count or offset to an entry's field. Every payload a
// command can ask for is at most MaxPayload (core.Op.CheckSize), so a value
// that does not fit is a bug in a caller that skipped that check.
func i32(v int) int32 {
	if v != int(int32(v)) {
		panic(fmt.Sprintf("nbc: %d bytes do not fit a schedule entry; payloads must be below 2 GiB", v))
	}
	return int32(v)
}

// postOne returns an entry that posts kind once, to peer, with the n bytes at
// off of base buffer ref.
func postOne(kind OpKind, tag, peer int, ref int32, off, n int) Op {
	return Op{kt: opWord(kind, true, tag), Peer: int32(peer), Count: 1, Ref: ref, Off: i32(off), Len: i32(n)}
}

// postRun returns an entry that posts kind count times, to peer, peer+step, …
// mod the comm size (0 ≤ step < comm size), each post with its peer's n-byte
// block at off + peer·n of base buffer ref.
func postRun(kind OpKind, tag, peer, step, count int, ref int32, off, n int) Op {
	return Op{kt: opWord(kind, false, tag), Peer: int32(peer), Count: int32(count), Step: int32(step), Ref: ref, Off: i32(off), Len: i32(n)}
}

// awaitPuts returns an OpAwaitPuts entry gating its round on n puts.
func awaitPuts(n int) Op { return Op{kt: opWord(OpAwaitPuts, false, 0), N: i32(n)} }

// nextRun returns the longest run of peers[i:] whose successive comm ranks
// are one step apart mod n, as (step, count).
func nextRun(peers []int, i, n int) (step, count int) {
	count = 1
	if i+1 < len(peers) {
		step = mod(peers[i+1]-peers[i], n)
		for count = 2; i+count < len(peers) && mod(peers[i+count]-peers[i+count-1], n) == step; count++ {
		}
	}
	return step, count
}

// runCount returns the runs nextRun splits peers into.
func runCount(peers []int, n int) int {
	runs := 0
	for i := 0; i < len(peers); runs++ {
		_, count := nextRun(peers, i, n)
		i += count
	}
	return runs
}

// Round is a set of operations started together.
type Round []Op

// builder lays a schedule out as LibNBC builds one in a single buffer: its
// ops in one array, every round a capped sub-slice of it that starts where
// the round before it ends, so an append to one round can never write into
// the next. A builder that knows its op and round counts sizes the array
// exactly; one that does not lets it grow, and done re-slices every round
// from the final array. Payloads with real bytes go into the schedule's
// buffer table, and local work into its function table only when the
// schedule carries data, as the work copies or reduces real bytes: a virtual
// schedule has neither table, and no tables record either.
type builder struct {
	s     *Schedule
	ops   []Op
	start int  // first op of the open round
	data  bool // the schedule moves real bytes
}

// newBuilder starts schedule name over payloads like like, with room for ops
// entries in rounds rounds.
func newBuilder(name string, like mpi.Buf, ops, rounds int) *builder {
	return &builder{
		s:    &Schedule{Name: name, Rounds: make([]Round, 0, rounds)},
		ops:  make([]Op, 0, ops),
		data: like.HasData(),
	}
}

// buf returns the Ref of base buffer x: its index in the schedule's table
// when x has real bytes, -1 for a virtual payload, which is a length alone.
func (b *builder) buf(x mpi.Buf) int32 {
	if !x.HasData() {
		return -1
	}
	t := b.tables()
	t.bufs = append(t.bufs, x)
	return int32(len(t.bufs) - 1)
}

// tables returns the schedule's tables, creating them on first use.
func (b *builder) tables() *tables {
	if b.s.data == nil {
		b.s.data = &tables{}
	}
	return b.s.data
}

func (b *builder) add(op Op) { b.ops = append(b.ops, op) }

// local adds an OpLocal entry charging n bytes of copy time; work is
// registered only when the schedule carries data.
func (b *builder) local(n int, work func()) {
	op := Op{kt: opWord(OpLocal, false, 0), N: i32(n), Ref: -1}
	if b.data {
		t := b.tables()
		op.Ref = int32(len(t.work))
		t.work = append(t.work, work)
	}
	b.add(op)
}

// fanOut adds posts of kind to each of peers in turn, all with the n bytes at
// off of base buffer ref, one entry per run of peers a step apart mod the
// comm size commSize.
func (b *builder) fanOut(kind OpKind, tag int, peers []int, commSize int, ref int32, off, n int) {
	for i := 0; i < len(peers); {
		step, count := nextRun(peers, i, commSize)
		op := postOne(kind, tag, peers[i], ref, off, n)
		op.Step, op.Count = int32(step), int32(count)
		b.add(op)
		i += count
	}
}

// end closes the open round; a round without ops is dropped.
func (b *builder) end() {
	if n := len(b.ops); n > b.start {
		b.s.Rounds = append(b.s.Rounds, Round(b.ops[b.start:n:n]))
		b.start = n
	}
}

// splice appends part's rounds, their tags shifted by tagBase and their
// buffer and work indexes rebased onto this schedule's tables, and returns
// the highest tag offset part's sends and receives use (-1: none).
func (b *builder) splice(part *Schedule, tagBase int) int {
	var bufBase, workBase int32
	if p := part.data; p != nil {
		t := b.tables()
		bufBase, workBase = int32(len(t.bufs)), int32(len(t.work))
		t.bufs = append(t.bufs, p.bufs...)
		t.work = append(t.work, p.work...)
	}
	hi := -1
	for _, r := range part.Rounds {
		for _, op := range r {
			if k := op.Kind(); k == OpSend || k == OpRecv {
				hi = max(hi, op.TagOff())
				op.setTagOff(op.TagOff() + tagBase)
			}
			switch {
			case op.Ref < 0:
			case op.Kind().posts():
				op.Ref += bufBase
			case op.Kind() == OpLocal:
				op.Ref += workBase
			}
			b.add(op)
		}
		b.end()
	}
	return hi
}

// done closes the open round and returns the schedule, every round sliced
// from the final op array.
func (b *builder) done() *Schedule {
	b.end()
	start := 0
	for i, r := range b.s.Rounds {
		end := start + len(r)
		b.s.Rounds[i] = b.ops[start:end:end]
		start = end
	}
	return b.s
}

// Schedule is a per-rank compiled collective operation. Schedules are
// immutable and reusable: every Start creates fresh execution state, so a
// persistent ADCL request can run the same schedule each iteration, and a
// schedule of Relative entries alone (Ibarrier's) is shared by every rank.
type Schedule struct {
	// Name identifies the algorithm/parameters, e.g. "ialltoall-pairwise".
	Name   string
	Rounds []Round
	// Win is the one-sided window used by OpPut/OpAwaitPuts entries.
	// Schedules with a window allow only one outstanding execution at a
	// time (the completion counters are per window).
	Win *mpi.Win

	data *tables // nil for a schedule that moves no real bytes
}

// tables are what a schedule that moves real bytes names by index: behind
// one pointer, so a virtual schedule's header is 8 bytes instead of 48.
type tables struct {
	bufs []mpi.Buf // base buffers with real bytes, named by the post entries' Ref
	work []func()  // local work, named by the OpLocal entries' Ref
}

// Handle is the execution state of one started schedule (LibNBC's
// NBC_Handle). It is bound to the communicator it was started on.
//
// Handles are pooled per rank: Start draws from the rank's pool, and the
// handle releases itself back when its completion is observed — at the end
// of Wait, or when Progress returns true. After that point the handle must
// not be touched again (the next Start on the rank re-arms the same record);
// callers drop their reference on the done transition, exactly what the
// core persistent-request loop and the fft transpose do. The pending request
// list holds generation-checked mpi.ReqHandles and is capacity-reused across
// rounds and executions, so a steady-state re-Start allocates nothing.
type Handle struct {
	comm     *mpi.Comm
	sched    *Schedule
	pool     *handlePool
	tag      int
	round    int
	pending  []mpi.ReqHandle
	await    int         // cumulative put count the current round waits for (-1: none)
	awaitFn  func() bool // h.awaitSatisfied, evaluated once per record: a method value allocates
	instance int64       // collective instance id on the schedule's window
	done     bool
	released bool
	gated    bool // Wait's wait set is the round's await gate, not its requests
	obsID    int  // recorder span id for this execution (-1: not observed)
}

// handlePool is the per-rank free list of Handle records, kept in the rank's
// opaque layer-state slot. The rank's first handle and the free list's first
// slot live inside the pool, so a rank that runs one collective at a time
// makes one object for all of its collectives; a deeper pool grows as before.
type handlePool struct {
	free  []*Handle
	slot  [1]*Handle // free's first backing array
	first Handle
}

// newPool returns a pool holding its own first handle, released.
func newPool() *handlePool {
	p := &handlePool{}
	p.first = idleHandle(p, 0)
	p.free = append(p.slot[:0], &p.first)
	return p
}

// idleHandle returns a released record of pool p whose pending list has room
// for pending requests.
func idleHandle(p *handlePool, pending int) Handle {
	return Handle{pool: p, pending: make([]mpi.ReqHandle, 0, pending), await: -1, done: true, released: true, obsID: -1}
}

// ForkLayer implements mpi.LayerForker: a forked world gets a pool of the
// same depth with fresh released records whose pending slices carry the
// parent's warmed capacity but none of its backing arrays — re-arming a
// handle inside a fork can never alias the parent's scratch memory, and the
// fork's steady state starts allocation-free.
func (p *handlePool) ForkLayer() any {
	q := &handlePool{}
	q.free = q.slot[:0]
	for i, h := range p.free {
		fh := &q.first
		if i > 0 {
			fh = new(Handle)
		}
		*fh = idleHandle(q, cap(h.pending))
		q.free = append(q.free, fh)
	}
	return q
}

// schedName names the schedule a handle is armed on, for diagnostics.
func (h *Handle) schedName() string {
	if h.sched == nil {
		return "<none>"
	}
	return h.sched.Name
}

func poolFor(rank *mpi.Rank) *handlePool {
	slot := rank.LayerState()
	if *slot == nil {
		*slot = newPool()
	}
	return (*slot).(*handlePool)
}

// Start begins non-blocking execution of sched on comm. It posts the first
// round and returns immediately. All members must start the same collective
// in the same order.
func Start(comm *mpi.Comm, sched *Schedule) *Handle {
	rank := comm.RankState()
	pool := poolFor(rank)
	var h *Handle
	if n := len(pool.free); n > 0 {
		h = pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
		if h.comm != nil || h.sched != nil || len(h.pending) != 0 {
			// A pooled record still owns an in-flight execution: re-arming it
			// would alias two collectives onto one pending list and corrupt
			// both silently. Only released handles may sit in the pool.
			panic(fmt.Sprintf("nbc: Start drew a pooled handle still pending on %q round %d (%d request(s) in flight); a Handle was returned to the pool before Wait observed completion",
				h.schedName(), h.round, len(h.pending)))
		}
	} else {
		h = &Handle{pool: pool}
	}
	h.comm, h.sched, h.tag = comm, sched, comm.FreshNBTag()
	h.round = 0
	h.pending = h.pending[:0]
	h.await = -1
	h.instance = 0
	h.done, h.released = false, false
	if sched.Win != nil {
		h.instance = sched.Win.NextInstance()
	}
	h.obsID = rank.Recorder().OpBegin(rank.ID(), sched.Name, rank.Now())
	h.execRounds()
	return h
}

// release returns the handle to its rank's pool once completion has been
// observed. Inline completion inside Start must NOT release (the caller
// still holds the fresh handle), so Start leaves done handles live and the
// observation points in Wait and Progress release them.
func (h *Handle) release() {
	if h.released {
		return
	}
	h.released = true
	h.freePending()
	h.comm, h.sched = nil, nil
	h.pool.free = append(h.pool.free, h)
}

// freePending recycles the completed requests of the round just finished.
func (h *Handle) freePending() {
	h.comm.FreeHandles(h.pending)
	h.pending = h.pending[:0]
}

// execRounds executes the current round's local ops, posts its p2p ops, and
// falls through rounds that post nothing and await nothing.
func (h *Handle) execRounds() {
	rank := h.comm.RankState()
	rec := rank.Recorder()
	n, params := h.comm.Size(), rank.Network().Params()
	for h.round < len(h.sched.Rounds) {
		r := h.sched.Rounds[h.round]
		h.freePending()
		// Room for every post that can stay open: an eager send completes
		// at post, a rendezvous send stays open as long as a receive.
		posts, open := 0, 0
		for i := range r {
			if op := &r[i]; op.Kind().posts() {
				posts += int(op.Count)
				if op.Kind() != OpSend || !params.Eager(int(op.Len)) {
					open += int(op.Count)
				}
			}
		}
		h.pending = slices.Grow(h.pending, open)
		h.comm.Reserve(open)
		h.await = -1
		for i := range r {
			op := &r[i]
			if op.TagOff() >= mpi.NBTagStride {
				// An offset at or above the stride would alias a later
				// operation's tag range and corrupt matching silently —
				// the failure mode large-rank schedules (pairwise, ring,
				// deeply segmented trees) hit before the stride was widened.
				panic(fmt.Sprintf("nbc: %s round %d tag offset %d outside the %d-wide stride",
					h.schedName(), h.round, op.TagOff(), mpi.NBTagStride))
			}
			switch kind := op.Kind(); kind {
			case OpLocal:
				rank.ChargeCopy(int(op.N))
				if op.Ref >= 0 {
					h.sched.data.work[op.Ref]()
				}
			case OpAwaitPuts:
				h.await = int(op.N)
			case OpSend, OpRecv, OpPut:
				var base mpi.Buf // virtual
				if op.Ref >= 0 {
					base = h.sched.data.bufs[op.Ref]
				}
				tag, peer, l, same := h.tag+op.TagOff(), int(op.Peer), int(op.Len), op.SameBlock()
				if op.Relative() {
					peer = mod(peer+h.comm.Rank(), n)
				}
				for range op.Count {
					off := int(op.Off)
					if !same {
						off += peer * l
					}
					b := base.Slice(off, l)
					switch kind {
					case OpSend:
						rec.AlgoBytes(rank.ID(), h.sched.Name, l)
						h.post(h.comm.Isend(peer, tag, b))
					case OpRecv:
						h.post(h.comm.Irecv(peer, tag, b))
					case OpPut:
						rec.AlgoBytes(rank.ID(), h.sched.Name, l)
						h.post(h.sched.Win.PutInstanced(h.instance, peer, int(op.N), b))
					}
					if peer += int(op.Step); peer >= n {
						peer -= n
					}
				}
			default:
				panic(fmt.Sprintf("nbc: unknown op kind %d", kind))
			}
		}
		if posts > 0 || h.await >= 0 {
			if rec != nil {
				rec.MarkInstant(rank.ID(), fmt.Sprintf("%s r%d", h.sched.Name, h.round), rank.Now())
			}
			return // wait for this round's communication
		}
		h.round++
	}
	h.done = true
	h.freePending()
	rec.OpEnd(rank.ID(), h.obsID, rank.Now())
}

// post adds a request the round just posted to its pending list if it is
// still open. One that is already complete (every eager send, and a receive
// its message had already reached) goes straight back to the pool, so the
// round's next post draws the same record: the round waits on its open
// requests alone, and the progress charges count the rank's outstanding
// requests, not the list.
func (h *Handle) post(q *mpi.Request) {
	if hd := q.Handle(); !hd.Done() {
		h.pending = append(h.pending, hd)
		return
	}
	h.comm.FreeRequests(q)
}

// awaitSatisfied checks the current round's put-count gate.
func (h *Handle) awaitSatisfied() bool {
	if h.await < 0 {
		return true
	}
	return h.sched.Win.ReceivedFor(h.instance) >= h.await
}

// Progress drives the schedule: it makes one library progress pass, and if
// the current round has completed it starts the next one. Returns true when
// the whole schedule has finished — at which point the handle is released
// back to the pool and must not be touched again. This is the paper's
// ADCL_Progress hook.
func (h *Handle) Progress() bool {
	if h.done {
		h.release()
		return true
	}
	if !h.comm.TestHandles(h.pending) || !h.awaitSatisfied() {
		return false
	}
	rank := h.comm.RankState()
	rank.Recorder().ProgressAdvanced(rank.ID())
	h.round++
	h.execRounds()
	if h.done {
		h.release()
		return true
	}
	return false
}

// Wait blocks inside MPI until the schedule completes, driving all remaining
// rounds. Each round starts inside the wait's poll, at the instant the round
// before it completes (next), so the rank parks once per Wait, not once per
// round. On return the handle has been released back to the pool and must
// not be touched again.
func (h *Handle) Wait() {
	if !h.done {
		h.comm.WaitSteps(h.pending, (*waitStep)(h))
	}
	h.release()
}

// waitStep is a Handle as the mpi.Stepper of its Wait: an interface holding
// the handle's pointer, where a method value of next would allocate.
type waitStep Handle

func (s *waitStep) Step() bool { return (*Handle)(s).next() }

// next is Wait's step, run in event context once the current wait set holds:
// a round that awaits puts waits for them next; otherwise the following round
// starts and its requests become the wait set. It reports whether the
// schedule is done.
func (h *Handle) next() bool {
	if h.await >= 0 && !h.gated {
		if h.awaitFn == nil {
			h.awaitFn = h.awaitSatisfied
		}
		h.gated = true
		h.comm.ArmFor(h.awaitFn)
		return false
	}
	h.gated = false
	h.round++
	h.execRounds()
	if h.done {
		return true
	}
	h.comm.ArmHandles(h.pending)
	return false
}

// Run executes a schedule to completion, blocking (init + wait).
func Run(comm *mpi.Comm, sched *Schedule) {
	Start(comm, sched).Wait()
}

// seg returns the byte range of segment s when a size-byte message is split
// into segSize segments, as (offset, length).
func seg(size, segSize, s int) (int, int) {
	off := s * segSize
	l := segSize
	if off+l > size {
		l = size - off
	}
	return off, l
}

// numSegs returns the segment count for a message of size bytes, without
// overflow at any size.
func numSegs(size, segSize int) int {
	if size <= 0 {
		return 1
	}
	return (size-1)/segSize + 1
}
