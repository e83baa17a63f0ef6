package mpi

import (
	"fmt"

	"nbctune/internal/chaos"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

// Snapshot/fork support: checkpoint a quiescent world and materialize any
// number of independent, byte-deterministic copies of it. This is what lets
// the speculative selector (internal/core) score every candidate on its own
// fork of the live simulation instead of measuring them one after another
// in-line.
//
// A world is only snapshottable at a quiescent point — simulated processes
// run on goroutines whose stacks cannot be copied, so every rank's program
// must have returned (Engine.Run drained the queue) and the protocol must be
// at rest. The one piece of cross-program protocol state that legitimately
// survives such a point is the unexpected-eager queue (a message sent and
// buffered before any receive was posted); it is deep-copied. Posted
// receives, unanswered rendezvous handshakes and open requests all reference
// request records owned by the finished programs and make a fork meaningless,
// so Snapshot refuses them with a descriptive error.

// LayerForker is implemented by per-rank layer state (Rank.LayerState) that
// can produce a detached copy of itself for a forked world. ForkLayer must
// return a deep copy sharing no mutable memory with the receiver, and the
// copy must itself implement LayerForker (snapshots re-fork their copy once
// per Fork).
type LayerForker interface {
	ForkLayer() any
}

// envSnap is one unexpected-eager envelope held by a snapshot. The payload
// is a private clone (free for virtual bufs).
type envSnap struct {
	src, dst, ctx int32
	tag           int
	buf           Buf
}

// rankSnap is the detached per-rank state.
type rankSnap struct {
	rng        *sim.ClonableRand
	pseq       uint64
	eager      []envSnap
	scratchCap int
	noticeCap  int
	layer      any // LayerForker copy, re-forked per Fork; nil if none
}

// WorldSnapshot is a detached, immutable checkpoint of a quiescent world and
// everything under it (engine, network, chaos streams, per-rank state). It
// shares nothing mutable with the parent, so the parent may keep running and
// concurrent Forks are safe.
type WorldSnapshot struct {
	sim   *sim.Snapshot
	net   *netmodel.Snapshot
	opts  Options
	chaos *chaos.Injector // detached clone; each Fork re-clones it

	nextCtx int
	ranks   []rankSnap
}

// Snapshot checkpoints the world. The engine must be quiescent (run until
// its queue drained) and every rank's protocol state at rest; otherwise a
// descriptive error explains what is still in flight. The unexpected-eager
// queues are the one piece of message state carried across: their envelopes
// are deep-copied in arrival order, payloads cloned (free for Virtual bufs,
// one copy for real ones).
func (w *World) Snapshot() (*WorldSnapshot, error) {
	sh := w.shards[0]
	simSnap, err := sh.eng.Snapshot()
	if err != nil {
		return nil, err
	}
	s := &WorldSnapshot{
		sim:     simSnap,
		opts:    sh.opts,
		nextCtx: w.nextCtx,
	}
	for _, r := range w.ranks {
		if r.nhead != 0 || len(r.notices) != 0 {
			return nil, fmt.Errorf("mpi: snapshot with %d unprocessed notice(s) on rank %d", len(r.notices)-r.nhead, r.id)
		}
		if r.blockedInMPI {
			return nil, fmt.Errorf("mpi: snapshot while rank %d is blocked inside MPI", r.id)
		}
		if r.m.postedCount != 0 {
			return nil, fmt.Errorf("mpi: snapshot with %d posted receive(s) outstanding on rank %d", r.m.postedCount, r.id)
		}
		if r.m.rts.count != 0 {
			return nil, fmt.Errorf("mpi: snapshot with %d unanswered rendezvous RTS on rank %d", r.m.rts.count, r.id)
		}
		if r.outstanding != 0 {
			return nil, fmt.Errorf("mpi: snapshot with %d open request(s) on rank %d", r.outstanding, r.id)
		}
		rs := rankSnap{
			pseq:       r.m.pseq,
			scratchCap: cap(r.scratch),
			noticeCap:  cap(r.notices),
		}
		// A rank that never drew randomness has no stream to position; the
		// fork re-creates it lazily from the same seed, so leaving it nil
		// here is byte-equivalent and keeps fork cost proportional to the
		// ranks that actually used their RNG.
		if r.rng != nil {
			rs.rng = r.rng.Clone()
		}
		for i := r.m.eager.ghead; i != 0; {
			env := sh.recs.env(i)
			rs.eager = append(rs.eager, envSnap{
				src: env.src, dst: env.dst, tag: env.tag, ctx: env.ctx,
				buf: sh.recs.data(env.buf).Clone(),
			})
			i = env.gnext
		}
		if r.layerState != nil {
			lf, ok := r.layerState.(LayerForker)
			if !ok {
				return nil, fmt.Errorf("mpi: rank %d layer state (%T) does not support forking", r.id, r.layerState)
			}
			rs.layer = lf.ForkLayer()
		}
		s.ranks = append(s.ranks, rs)
	}
	if in := sh.net.Chaos(); in != nil {
		s.chaos = in.Clone() // each Fork gets its own clone of s.chaos
	}
	netSnap, err := sh.net.Snapshot() // refuses the views of a world on windows
	if err != nil {
		return nil, err
	}
	s.net = netSnap
	return s, nil
}

// Fork materializes an independent world from the snapshot: a fresh engine
// at the snapshot's virtual time, a network with the parent's NIC high-water
// marks and FIFO floors, chaos noise streams positioned mid-stream exactly
// where the parent's were, and per-rank state — RNG position,
// unexpected-eager queues (payloads re-cloned), posted-order counters, and
// the layer state re-forked. The record pools start empty in every fork, so
// forked runs draw records in the identical sequence. Nothing in a fork
// aliases the snapshot or any sibling fork, so concurrent Forks (and
// concurrent forked runs) are safe.
//
// Start a new program on the returned world and run the returned engine;
// communicator contexts continue from the parent's sequence, so every fork
// of one snapshot draws identical contexts and tags.
func (s *WorldSnapshot) Fork() (*sim.Engine, *World) {
	eng := s.sim.Fork()
	var inj *chaos.Injector
	if s.chaos != nil {
		inj = s.chaos.Clone()
	}
	w := &World{ranks: make([]*Rank, len(s.ranks)), nextCtx: s.nextCtx}
	sh := newShard(newRecords(1, len(s.ranks)), 0, s.net.Fork(eng, inj), w.ranks, s.opts)
	w.shards = []*shard{sh}
	// Rank records come out of one contiguous batch, and the lazily created
	// structures (RNG, matcher indexes) stay absent in the fork exactly
	// where they were absent in the parent — per-fork cost is
	// proportional to live state, not to the rank count times the size of a
	// fully equipped rank.
	recs := make([]Rank, len(s.ranks))
	for i := range s.ranks {
		rs := &s.ranks[i]
		r := &recs[i]
		r.w, r.id = sh, i
		if rs.rng != nil {
			r.rng = rs.rng.Clone()
		}
		r.m.pseq = rs.pseq
		if rs.noticeCap > 0 {
			r.notices = make([]notice, 0, rs.noticeCap)
		}
		if rs.scratchCap > 0 {
			r.scratch = make([]*Request, 0, rs.scratchCap)
		}
		w.ranks[i] = r
		for _, es := range rs.eager {
			env := sh.allocEnv()
			env.src, env.dst, env.tag, env.ctx = es.src, es.dst, es.tag, es.ctx
			env.buf = sh.hold(es.buf.Clone())
			r.m.eager.push(sh.recs, env)
		}
		if rs.layer != nil {
			r.layerState = rs.layer.(LayerForker).ForkLayer()
		}
	}
	return eng, w
}
