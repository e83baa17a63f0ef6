// PDES support: the sharded world (DESIGN.md §2).
//
// A ShardedWorld runs one World per shard over a single global rank space.
// The shards share the immutable platform (placement, topology, parameters)
// and the global rank table, but each shard owns its own engine, its own
// netmodel view, and its own protocol-record pools, and executes only the
// ranks whose nodes its view owns (netmodel.Network.Owns). Cross-shard
// protocol traffic flows through the netmodel PDES layer's outboxes and is
// injected at window barriers in canonical (time, source rank, sequence)
// order, which is what makes every simulated quantity independent of the
// shard count.
//
// The protocol is the sequential world's, record for record: p2p,
// collectives, the NBC layer, one-sided puts, tuning, observability, and
// chaos, from one injector per shard's network view (netmodel.SetChaos), all
// built from the same (profile, seed). The one difference is netmodel's:
// where a view Splits a transfer at the wire, a rendezvous send or a put to
// another node completes at its origin when the origin's NIC has drained the
// payload, not at remote delivery (xmit). A sharded world cannot be
// snapshotted, because netmodel will not snapshot a sharded network.
package mpi

import (
	"fmt"

	"nbctune/internal/netmodel"
	"nbctune/internal/obs"
	"nbctune/internal/sim"
)

// ShardedWorld is a set of per-shard Worlds executing one MPI program over a
// common rank space under conservative time-window synchronization.
type ShardedWorld struct {
	worlds []*World
	win    *sim.Windows
}

// NewSharded assembles a sharded world from per-shard engines and network
// views (netmodel.NewSharded) plus the window coordinator they are bound to.
// Each rank lives in the world of the view that Owns its node.
func NewSharded(engs []*sim.Engine, nets []*netmodel.Network, win *sim.Windows, n int, opts Options) (*ShardedWorld, error) {
	k := len(engs)
	if k == 0 || k != len(nets) || k != win.Shards() {
		return nil, fmt.Errorf("mpi: %d engines / %d networks / %d window shards", len(engs), len(nets), win.Shards())
	}
	worlds := make([]*World, k)
	for s := range worlds {
		worlds[s] = &World{eng: engs[s], net: nets[s], opts: opts, nextCtx: 1}
	}
	recs := make([]Rank, n)
	ranks := make([]*Rank, n)
	for i := range recs {
		r := &recs[i]
		r.id = i
		for _, w := range worlds {
			if w.net.Owns(i) {
				r.w = w
			}
		}
		if r.w == nil {
			return nil, fmt.Errorf("mpi: no network view runs rank %d's node", i)
		}
		ranks[i] = r
	}
	for _, w := range worlds {
		w.ranks = ranks
	}
	return &ShardedWorld{worlds: worlds, win: win}, nil
}

// Windows returns the window coordinator driving the shards.
func (sw *ShardedWorld) Windows() *sim.Windows { return sw.win }

// Observe attaches one recorder to every shard's world (World.Observe).
func (sw *ShardedWorld) Observe(rec *obs.Recorder) {
	for _, w := range sw.worlds {
		w.Observe(rec)
	}
}

// Start spawns one simulated process per rank, each executing prog with its
// world communicator; every shard spawns exactly its own ranks. Call Run
// afterwards.
func (sw *ShardedWorld) Start(prog func(c *Comm)) {
	for _, w := range sw.worlds {
		w.Start(prog)
	}
}

// Run executes the simulation to completion: all shards advance in lockstep
// time windows until every event queue drains (sim.Windows.Run).
func (sw *ShardedWorld) Run() { sw.win.Run() }

// Now returns the global virtual time, which every shard is at between runs.
func (sw *ShardedWorld) Now() float64 { return sw.win.Now() }

// EventsFired returns the total events executed across all shard engines.
func (sw *ShardedWorld) EventsFired() int64 { return sw.win.EventsFired() }
