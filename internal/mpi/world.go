// Package mpi implements a simulated single-threaded MPI library on top of
// the sim engine and the netmodel interconnect model — layer S3 of the
// substitution map (DESIGN.md §1), the stand-in for Open MPI 1.6.
//
// The central design point, taken from the paper (§III-C), is that the
// library has no progress thread: non-blocking operations only advance when
// the application is inside an MPI call (a progress call, a test, a wait, or
// a blocking operation). Network arrivals and protocol notices queue per rank
// and are processed exclusively at such "MPI instants". The rendezvous
// protocol therefore exhibits the paper's progress-call sensitivity: an RTS
// is answered only when the receiver enters MPI, and the bulk transfer starts
// only when the sender next enters MPI after the CTS arrived.
package mpi

import (
	"fmt"
	"math"

	"nbctune/internal/chaos"
	"nbctune/internal/netmodel"
	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

// Options configures a World.
type Options struct {
	// Noise perturbs every Compute call, drawn from the rank's own stream. A
	// model that draws nothing (the zero model) leaves that stream uncreated.
	Noise chaos.OSNoise
	// Seed feeds the per-rank RNGs.
	Seed int64
}

// World is a set of simulated MPI ranks sharing one interconnect: the rank
// table, the shards that run it and, on the sharded (PDES) engine, the
// windows that drive the shards' engines in lockstep (DESIGN.md §2). The
// sequential world is a world of one shard and no windows. The protocol is
// the same on both engines; what differs is netmodel's timeline. Where a view
// Splits a transfer at the wire, a rendezvous send or a put to another node
// completes at its origin when the origin's NIC has drained the payload, not
// at remote delivery (xmit); netmodel also reserves the receiver's NIC at
// wire arrival and merges cross-node messages at the window barrier in
// (time, source rank, sequence) order rather than in send order.
type World struct {
	ranks   []*Rank
	shards  []*shard
	win     *sim.Windows // nil when one engine runs alone
	nextCtx int
}

// shard is the part of a world one engine runs: its engine, network view,
// record pools and window registry. Rank.w points here, and the shard holds
// copies of the rank table's header and the options, so each of these is
// one load from a rank.
type shard struct {
	eng    *sim.Engine
	net    *netmodel.Network
	ranks  []*Rank // the world's rank table
	opts   Options
	winReg *winRegistry

	// The world's protocol records, and this shard's number among the slabs
	// that hold them: a shard draws fresh records from its own slabs and
	// resolves an index from any shard's.
	recs *records
	id   int

	// Free lists for pooled protocol records. Shard-level (not per rank) so
	// a record freed by its receiver can be reused by any sender; safe
	// without locks because the engine serializes all ranks of one shard.
	// Each is an intrusive LIFO chain of indices through a link field that a
	// free record never otherwise uses, so a list costs nothing to grow. A
	// record freed here may have been drawn on another shard: it belongs to
	// whichever shard's list holds it. A record is drawn from this shard's
	// slab only when its list is empty.
	reqFree int32 // through mnext
	envFree int32 // through bnext
	xfFree  int32 // through next
	bufFree int32 // payload slots, through next
	held    int   // payload slots this shard took minus those it released

	// The protocol's network calls and delivery entry points (p2p.go),
	// registered with the shard's engine in newShard.
	h handlers
}

// handlers are the protocol's callbacks as the engine names them. Every shard
// of a world registers them in the same order after netmodel's, so they are
// the same on every shard (NewWorld checks it): a delivery sent from one
// shard names its handler in the table of the engine it fires on.
type handlers struct {
	xmitEager, xmitRTS, xmitCTS, xmit                           sim.Handler
	deliverEager, deliverRTS, deliverCTS, deliverXfer, sendDone sim.Handler
}

// records is a world's protocol records: one slab each of requests,
// envelopes, transfers and payload slots per shard, against which every
// index a record, notice, matcher queue or free list holds resolves. Their
// chunks come from the pools below, where World.Release puts them back.
type records struct {
	reqs  netmodel.Slabs[Request]
	envs  netmodel.Slabs[envelope]
	xfs   netmodel.Slabs[xfer]
	bufs  netmodel.Slabs[bufSlot]
	slots int // the first table of a matcher queue's index (keyIndex)
}

// newRecords returns the records of a world of the given shards and ranks.
// A queue's first index has room for one key per rank under the 3/4 load,
// between minSlots and maxFirstSlots slots: a linear all-to-all builds it
// once instead of doubling it up from minSlots.
func newRecords(shards, ranks int) *records {
	slots := minSlots
	for slots < maxFirstSlots && 3*slots < 4*ranks {
		slots *= 2
	}
	return &records{
		reqs:  netmodel.NewSlabs(shards, &reqChunks),
		envs:  netmodel.NewSlabs(shards, &envChunks),
		xfs:   netmodel.NewSlabs(shards, &xfChunks),
		bufs:  netmodel.NewSlabs(shards, &bufChunks),
		slots: slots,
	}
}

// The record chunks of released worlds, one pool per record type.
var (
	reqChunks sim.ChunkPool[Request]
	envChunks sim.ChunkPool[envelope]
	xfChunks  sim.ChunkPool[xfer]
	bufChunks sim.ChunkPool[bufSlot]
)

func (p *records) req(i int32) *Request  { return p.reqs.At(i) }
func (p *records) env(i int32) *envelope { return p.envs.At(i) }
func (p *records) xf(i int32) *xfer      { return p.xfs.At(i) }

// payload is a protocol record's hold on a Buf: its length and, for real
// storage, the world's payload slot that keeps it (0: a virtual payload). A
// virtual run never touches the table, and the records that carry a payload
// hold no pointer. The length is an int32, so a message carries at most
// MaxPayload bytes: isend, irecv and PutInstanced refuse a longer buffer
// (checkLen).
type payload struct {
	n int32
	i int32
}

// MaxPayload is the longest buffer, in bytes, a message carries: a protocol
// record holds its length as an int32.
const MaxPayload = math.MaxInt32

// bufSlot is one slot of a world's payload table: the real storage of a
// record's payload, or, free, the next free slot.
type bufSlot struct {
	b    Buf
	next int32
}

// data returns the Buf a payload names.
func (p *records) data(pl payload) Buf {
	if pl.i == 0 {
		return Virtual(int(pl.n))
	}
	return p.bufs.At(pl.i).b
}

// hold returns the payload of b, entering real storage in a slot this shard
// draws (holdData).
func (s *shard) hold(b Buf) payload {
	if b.p == nil {
		return payload{n: int32(b.n)}
	}
	return s.holdData(b)
}

// holdData enters b's storage in a slot from the shard's free list, or fresh
// from its slab. Like records, a slot freed on another shard belongs to that
// shard's list.
func (s *shard) holdData(b Buf) payload {
	i := s.bufFree
	var sl *bufSlot
	if i != 0 {
		sl = s.recs.bufs.At(i)
		s.bufFree = sl.next
	} else {
		sl, i = s.recs.bufs[s.id].New()
	}
	sl.b, sl.next = b, 0
	s.held++
	return payload{n: int32(b.Len()), i: i}
}

// release frees the slot of a payload, if it has one, into this shard's
// list and leaves the payload virtual: the record lets go of the storage.
func (s *shard) release(pl *payload) {
	if pl.i == 0 {
		return
	}
	sl := s.recs.bufs.At(pl.i)
	sl.b, sl.next = Buf{}, s.bufFree
	s.bufFree, pl.i = pl.i, 0
	s.held--
}

// newShard returns shard number id of a world whose records are recs, its
// callbacks registered with the engine of net.
func newShard(recs *records, id int, net *netmodel.Network, ranks []*Rank, opts Options) *shard {
	s := &shard{recs: recs, id: id, net: net, ranks: ranks, opts: opts}
	if net == nil {
		return s
	}
	e := net.Engine()
	s.eng = e
	s.h = handlers{
		xmitEager: e.Handle(s.xmitEager), xmitRTS: e.Handle(s.xmitRTS), xmitCTS: e.Handle(s.xmitCTS), xmit: e.Handle(s.xmit),
		deliverEager: e.Handle(s.deliverEager), deliverRTS: e.Handle(s.deliverRTS), deliverCTS: e.Handle(s.deliverCTS),
		deliverXfer: e.Handle(s.deliverXfer), sendDone: e.Handle(s.sendDone),
	}
	return s
}

// NewWorld creates n ranks over network views: one view and no windows for
// the sequential engine, or the views netmodel.NewSharded built with the
// windows that drive them. Each rank runs on the view that owns its node
// (netmodel.Network.Owns), and the views' placement must cover all n ranks.
//
// Per-rank state is deliberately minimal at construction: the rank records
// come out of one contiguous batch allocation, and everything that is only
// needed once a rank actually communicates — its RNG (about 100 B: a seed
// and a word count), the matcher's indexes — is created lazily on first use,
// and a rank waits on its own process (sim.Proc.Block), which needs no object
// at all. An idle 16K-rank world therefore costs a few hundred bytes per rank
// (pinned by TestIdleWorldFootprint16K), not kilobytes.
func NewWorld(nets []*netmodel.Network, win *sim.Windows, n int, opts Options) (*World, error) {
	k, want := len(nets), 1
	if win != nil {
		want = win.Shards()
	}
	if k == 0 || k != want {
		return nil, fmt.Errorf("mpi: %d network views for %d shards", k, want)
	}
	if k > netmodel.MaxShards {
		return nil, fmt.Errorf("mpi: %d shards, a record index names at most %d", k, netmodel.MaxShards)
	}
	if m := nets[0].Ranks(); n > m {
		return nil, fmt.Errorf("mpi: %d ranks but the placement covers %d", n, m)
	}
	w := &World{ranks: make([]*Rank, n), shards: make([]*shard, k), win: win, nextCtx: 1}
	pool := newRecords(k, n)
	for i, net := range nets {
		w.shards[i] = newShard(pool, i, net, w.ranks, opts)
		if h0 := w.shards[0].h; w.shards[i].h != h0 {
			return nil, fmt.Errorf("mpi: shard %d registered its handlers at %v, shard 0 at %v", i, w.shards[i].h, h0)
		}
	}
	recs := make([]Rank, n)
	for i := range recs {
		r := &recs[i]
		r.id = i
		for _, s := range w.shards {
			if s.net.Owns(i) {
				r.w = s
				break
			}
		}
		if r.w == nil {
			return nil, fmt.Errorf("mpi: no network view runs rank %d's node", i)
		}
		w.ranks[i] = r
	}
	return w, nil
}

// Observe attaches an observability recorder to every rank and to every
// network view: compute/in-MPI/blocked state spans, progress-call counts,
// rendezvous stalls, and NIC occupancy are reported to it from now on.
// Recording is passive (it never advances virtual time or perturbs any
// decision), so an observed run is bit-identical to an unobserved one.
// The recorder's per-node NIC storage is sized here, before any shard
// records into it. Call before Start; nil detaches.
func (w *World) Observe(rec *obs.Recorder) {
	rec.EnsureNodes(w.shards[0].net.Topo().NumNodes())
	for _, r := range w.ranks {
		r.rec = rec
	}
	for _, s := range w.shards {
		s.net.SetRecorder(rec)
	}
}

// Start spawns one simulated process per rank, on its shard's engine, each
// executing prog with its world communicator. Call Run afterwards to execute
// the simulation. Every process runs one body, which finds its rank by the
// process's number, and is named "rank<id>" only when a diagnostic asks.
func (w *World) Start(prog func(c *Comm)) {
	ctx := w.nextCtx
	w.nextCtx++
	w.shards[0].checkKey("Start with", ctx, AnySource, AnyTag, true)
	body := func(p *sim.Proc) {
		r := w.ranks[p.Num()]
		r.proc = p
		prog(&Comm{r: r, ctx: ctx})
	}
	for _, r := range w.ranks {
		r.w.eng.SpawnNumbered("rank", r.id, body)
	}
}

// checkKey panics unless the matcher's one-word key (keyOf) holds ctx, peer
// and tag: a context in 0..maxCtx, a world of at most maxRanks ranks, peer one
// of its ranks and tag in 0..maxTag, or AnySource and AnyTag where wild (a
// receive filter) allows them.
func (s *shard) checkKey(op string, ctx, peer, tag int, wild bool) {
	if ctx < 0 || ctx > maxCtx || len(s.ranks) > maxRanks ||
		!(peer >= 0 && peer < len(s.ranks) || wild && peer == AnySource) ||
		!(tag >= 0 && tag <= maxTag || wild && tag == AnyTag) {
		panic(fmt.Sprintf("mpi: %s rank %d, tag %d, context %d: not matchable in a %d-rank world (tags 0..%d, contexts 0..%d)",
			op, peer, tag, ctx, len(s.ranks), maxTag, maxCtx))
	}
}

// checkLen panics unless a payload of n bytes fits a protocol record: at most
// MaxPayload bytes, the bound nbc's schedules and core's size checks hold
// every collective to.
func checkLen(op string, n int) {
	if n > MaxPayload {
		panic(fmt.Sprintf("mpi: %s a %d-byte buffer: a message carries at most %d bytes", op, n, MaxPayload))
	}
}

// Run executes the simulation to completion: the one engine's queue, or all
// shards in lockstep time windows until every queue drains (sim.Windows.Run).
func (w *World) Run() {
	if w.win != nil {
		w.win.Run()
	} else {
		w.shards[0].eng.Run()
	}
}

// Release hands the chunks of the world's records and lane callbacks to the
// process-wide pools later worlds grow from. Call it once Run has returned, as
// the world's last use: no *Request or ReqHandle into it may outlive it. A
// released world has no ranks, so Start spawns nothing and Run returns at once.
func (w *World) Release() {
	for _, s := range w.shards {
		s.eng.Release()
		s.ranks = nil
	}
	r := w.shards[0].recs
	r.reqs.Release()
	r.envs.Release()
	r.xfs.Release()
	r.bufs.Release()
	w.ranks = nil
}

// Now returns the world's virtual time: between runs, the time the last
// program ended and the next one starts at, which every shard is at.
func (w *World) Now() float64 {
	if w.win != nil {
		return w.win.Now()
	}
	return w.shards[0].eng.Now()
}

// EventsFired and Resumes return the events executed and the coroutine
// hand-offs taken so far, summed over the shards' engines (sim.Engine).
func (w *World) EventsFired() int64 { return w.sum(func(e *sim.Engine) int64 { return e.EventsFired }) }
func (w *World) Resumes() int64     { return w.sum(func(e *sim.Engine) int64 { return e.Resumes }) }

func (w *World) sum(count func(*sim.Engine) int64) (n int64) {
	for _, s := range w.shards {
		n += count(s.eng)
	}
	return n
}

// Windows returns the window coordinator driving the shards, or nil when one
// engine runs alone.
func (w *World) Windows() *sim.Windows { return w.win }

// Engine returns the engine of a world without windows, and nil for one that
// runs on windows: there, Run, Now and EventsFired speak for all engines.
func (w *World) Engine() *sim.Engine {
	if w.win != nil {
		return nil
	}
	return w.shards[0].eng
}

// Rank is the per-process state of the simulated MPI library.
type Rank struct {
	w    *shard
	id   int
	proc *sim.Proc
	rng  *sim.ClonableRand // lazily created (see random); nil until first draw
	rec  *obs.Recorder     // nil unless World.Observe attached one

	// Message-progression state. The notice queue is appended to in
	// engine-event context (enqueue) and drained, like the matcher, only by
	// the rank's own progress engine (poll); the engine serializes those.
	notices      []notice // arrived, not yet seen by the library
	nhead        int      // first unprocessed notice (head cursor)
	m            matcher  // posted receives and unexpected envelopes (match.go)
	blockedInMPI bool     // blocked on its own process (sim.Proc.Block) until enqueue wakes it
	blockedAt    float64  // when the open blocked span began

	// The wait set of the blocking call in progress, in fields rather than in
	// a closure so that waiting allocates nothing: poll resumes the rank once
	// all of these hold. Empty between calls (and for a plain progress pass).
	waitReqs []*Request // Wait's requests, copied into reused capacity
	waitHs   []ReqHandle
	waitPred func() bool
	waitSeen int     // entries of waitReqs, or of waitHs, already seen done
	waitNext Stepper // WaitSteps' hook: runs when the wait set holds (see poll)

	outstanding int // open non-blocking requests, for OTest charging

	scratch []*Request // capacity-reused request list for blocking collectives

	// layerState is an opaque per-rank slot for a higher layer's reusable
	// execution state (the nbc handle pool lives here; see LayerState).
	layerState any
}

// ID returns the world rank number.
func (r *Rank) ID() int { return r.id }

// Now returns the rank's virtual time: its own clock, which runs ahead of the
// engine's between the points where the rank waits (DESIGN.md §2).
func (r *Rank) Now() float64 { return r.proc.Now() }

// Proc returns the simulated process executing this rank.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// random returns the rank's clonable RNG, creating it on first use. The
// stream is fully determined by the world seed and the rank id, so lazy
// creation draws the identical sequence an eagerly created stream would —
// only ranks that actually consume randomness (noise/chaos models, test
// programs) ever pay for it: about 100 B, a seed and a word count from which
// sim.ClonableRand computes math/rand's words.
func (r *Rank) random() *sim.ClonableRand {
	if r.rng == nil {
		r.rng = sim.NewClonableRand(r.w.opts.Seed*7919 + int64(r.id))
	}
	return r.rng
}

// Recorder returns the attached observability recorder, or nil. All
// *obs.Recorder methods are nil-safe, so callers use the result directly.
func (r *Rank) Recorder() *obs.Recorder { return r.rec }

// Network returns the interconnect model the rank's world runs on. Topology-
// aware schedule builders read placement (NodeOf) and the shared topology
// table (Topo) through it; they must treat both as immutable.
func (r *Rank) Network() *netmodel.Network { return r.w.net }

// Compute advances this rank by d seconds of application computation,
// perturbed by the world's noise model and by the OS noise of the chaos
// injector attached to its network, if any (netmodel.SetChaos). It is the
// only rank API that does NOT count as an MPI instant.
func (r *Rank) Compute(d float64) {
	if d < 0 {
		panic("mpi: negative compute time")
	}
	if n := r.w.opts.Noise; n.Draws() {
		d = n.Apply(r.random().Rand, d)
	}
	if in := r.w.net.Chaos(); in != nil {
		d = in.ComputeNoise(r.id, d)
	}
	t0 := r.proc.Now()
	r.proc.Advance(d)
	r.rec.StateSpan(r.id, obs.StateCompute, t0, t0+d)
}

// ChargeCopy charges the CPU cost of moving n bytes through the host memory
// system (pack/unpack buffers, local reductions).
func (r *Rank) ChargeCopy(n int) {
	r.charge(r.net().Params().CopyTime(n))
}

// ChargeDDTBlocks charges the derived-datatype descriptor overhead for a
// message consisting of n discontiguous blocks.
func (r *Rank) ChargeDDTBlocks(n int) {
	r.charge(ddtPerBlockOverhead * float64(n))
}

// charge advances the rank's clock by d seconds of library CPU time. The
// rank does not wait for the engine: whatever follows runs ahead, under the
// contract of package sim — rank-local state only, every network call
// deferred with Proc.DoH.
func (r *Rank) charge(d float64) {
	if d <= 0 {
		return
	}
	t0 := r.proc.Now()
	r.proc.Advance(d)
	r.rec.StateSpan(r.id, obs.StateMPI, t0, t0+d)
}

// enqueue adds a notice for this rank and wakes it if it is blocked inside
// an MPI wait. Runs in engine-event context.
func (r *Rank) enqueue(n notice) {
	r.notices = append(r.notices, n)
	if r.blockedInMPI {
		r.proc.Wake()
	}
}

// Progress performs one explicit progress call: it charges the progress
// overhead and processes all queued notices. This is the hook the NBC layer
// and ADCL's progress function drive.
func (r *Rank) Progress() {
	r.rec.ProgressCall(r.id)
	r.chargeTest()
	r.waitUntil() // an empty wait set: one pass of the progress engine
}

func (r *Rank) net() *netmodel.Network { return r.w.net }

// LayerState returns a mutable per-rank slot in which a higher layer caches
// reusable execution state across operations (the nbc layer keeps its handle
// pool here). The slot is owned by whichever layer claims it first; mpi never
// reads it.
func (r *Rank) LayerState() *any { return &r.layerState }

// allocReq draws a Request from the shard's pool. All fields except the
// pooling generation and the record's index are zero.
func (s *shard) allocReq() *Request {
	if i := s.reqFree; i != 0 {
		q := s.recs.req(i)
		s.reqFree, q.mnext = q.mnext, 0
		q.freed = false
		return q
	}
	q, i := s.recs.reqs[s.id].New()
	q.self = i
	return q
}

// freeReq returns a completed request to the pool, bumping its generation so
// outstanding ReqHandles keep reading as done instead of observing the
// record's next life.
func (s *shard) freeReq(q *Request) {
	if q.freed {
		panic("mpi: request freed twice")
	}
	if !q.done {
		panic("mpi: freeing an incomplete request (Wait before freeing)")
	}
	s.release(&q.buf)
	*q = Request{self: q.self, gen: q.gen + 1, freed: true, mnext: s.reqFree}
	s.reqFree = q.self
}

func (s *shard) allocEnv() *envelope {
	if i := s.envFree; i != 0 {
		env := s.recs.env(i)
		s.envFree, env.bnext = env.bnext, 0
		return env
	}
	env, i := s.recs.envs[s.id].New()
	env.self = i
	return env
}

// freeEnv recycles an envelope. Callers free exactly at the point the
// envelope leaves the protocol: when an eager payload or RTS is matched
// (immediately or out of the unexpected queue), and after an RTS has been
// answered with a CTS (the sender correlation travels on the send request,
// not the envelope).
func (s *shard) freeEnv(env *envelope) {
	s.release(&env.buf)
	*env = envelope{self: env.self, bnext: s.envFree}
	s.envFree = env.self
}

func (s *shard) allocXfer() *xfer {
	if i := s.xfFree; i != 0 {
		x := s.recs.xf(i)
		s.xfFree, x.next = x.next, 0
		return x
	}
	x, i := s.recs.xfs[s.id].New()
	x.self = i
	return x
}

func (s *shard) freeXfer(x *xfer) {
	s.release(&x.buf)
	*x = xfer{self: x.self, next: s.xfFree}
	s.xfFree = x.self
}

// waitUntil keeps the rank inside MPI until the queued notices are processed
// and the wait set holds. It is the core of Progress, Wait and the blocking
// collectives, and the one place a rank parks: the progress engine (poll)
// runs in event context for as long as the rank has to stay.
func (r *Rank) waitUntil() {
	r.proc.ParkUntil((*rankPoll)(r))
}

// rankPoll is a Rank as the sim.Poller of its waits: an interface holding the
// rank's pointer, where a method value of poll would allocate.
type rankPoll Rank

func (p *rankPoll) Poll() bool { return (*Rank)(p).poll() }

// poll is the progress engine, called whenever the engine has caught up with
// the rank (sim.Proc.ParkUntil). It drains the notice queue, performing
// protocol actions and charging their CPU costs — which puts the rank ahead
// again, so the notices that arrive while those costs elapse are found by the
// next call, when the engine is level with the last charge: only then can the
// queue be declared empty and the wait set be tested. A rank with nothing to
// do blocks on its own process until enqueue wakes it.
//
// A wait set that holds ends the wait, unless WaitSteps set a hook: then the
// hook runs here, in event context, and either ends the wait or installs the
// next wait set and the loop goes on — what the resumed coroutine would have
// done at this instant, without resuming it.
func (r *Rank) poll() bool {
	if r.blockedInMPI {
		r.blockedInMPI = false
		r.rec.StateSpan(r.id, obs.StateBlocked, r.blockedAt, r.proc.Now())
	}
	for {
		for r.nhead < len(r.notices) {
			if r.proc.Full() {
				return false
			}
			n := r.notices[r.nhead]
			r.notices[r.nhead] = notice{} // no stale index in the spare capacity
			r.nhead++
			n.process(r)
		}
		// Truncate in place so the queue's capacity is reused instead of abandoned.
		r.notices = r.notices[:0]
		r.nhead = 0
		if r.proc.Ahead() {
			return false
		}
		if !r.waitSatisfied() {
			r.blockedInMPI = true
			r.blockedAt = r.proc.Now()
			r.proc.Block()
			return false
		}
		if r.waitNext == nil || r.waitNext.Step() {
			return true
		}
	}
}

// waitSatisfied tests the wait set. It runs level with the engine, so a
// predicate may read what events write (window counters). A request seen
// done stays done — completion never reverts, and a freed record reads as
// done through its generation — so each poll resumes at the first entry not
// yet seen done instead of rescanning the completed prefix.
func (r *Rank) waitSatisfied() bool {
	for ; r.waitSeen < len(r.waitReqs); r.waitSeen++ {
		if !r.waitReqs[r.waitSeen].done {
			return false
		}
	}
	for ; r.waitSeen < len(r.waitHs); r.waitSeen++ {
		if !r.waitHs[r.waitSeen].Done() {
			return false
		}
	}
	return r.waitPred == nil || r.waitPred()
}
