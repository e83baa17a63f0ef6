package netmodel

import (
	"fmt"

	"nbctune/internal/chaos"
	"nbctune/internal/sim"
)

// Snapshot is a detached copy of a quiescent network: NIC channel high-water
// marks, counters and chaos FIFO floors; a fork starts with an empty delivery
// pool. It shares nothing mutable with the parent, so any number of Forks can be
// materialized from it concurrently.
type Snapshot struct {
	p      Params
	nodeOf []int // immutable; shared by every fork rather than re-copied
	topo   *Topo // immutable; shared by every fork
	tx, rx [][]float64

	transfers int64

	floors     map[uint64]float64
	ctrlFloors map[uint64]float64
}

// Snapshot captures the network's state. The network must be quiescent: the
// engine owning it has drained its queue, so no delivery is in flight. A
// recorder, if attached, is not carried across — it
// is an observer of the parent run, not part of the simulated state.
func (n *Network) Snapshot() (*Snapshot, error) {
	if n.pdes != nil {
		return nil, fmt.Errorf("netmodel: snapshot of a sharded (PDES) network is not supported")
	}
	s := &Snapshot{
		p:         n.p,
		nodeOf:    n.nodeOf,
		topo:      n.topo,
		tx:        make([][]float64, len(n.nodes)),
		rx:        make([][]float64, len(n.nodes)),
		transfers: n.Transfers,
	}
	for i, nd := range n.nodes {
		if f := nd.inbound(); f != 0 {
			return nil, fmt.Errorf("netmodel: snapshot with %d transfer(s) still inbound to node %d", f, i)
		}
		s.tx[i] = append([]float64(nil), nd.txFree...)
		s.rx[i] = append([]float64(nil), nd.rxFree...)
	}
	if n.chaos != nil {
		s.floors = make(map[uint64]float64, len(n.chaosFloor))
		for k, v := range n.chaosFloor {
			s.floors[k] = v
		}
		s.ctrlFloors = make(map[uint64]float64, len(n.chaosCtrlFloor))
		for k, v := range n.chaosCtrlFloor {
			s.ctrlFloors[k] = v
		}
	}
	return s, nil
}

// Fork materializes a network on the forked engine. inj must be a clone of
// the injector the parent ran under (nil if it ran clean); the snapshot's
// FIFO floors are installed under it so the non-overtaking guarantee extends
// across the fork boundary. Fork only reads the snapshot.
func (s *Snapshot) Fork(eng *sim.Engine, inj *chaos.Injector) *Network {
	n := &Network{
		eng:       eng,
		p:         s.p,
		nodeOf:    s.nodeOf,
		topo:      s.topo,
		Transfers: s.transfers,
	}
	n.bind()
	n.nodes = newNodes(len(s.tx), s.p.NICs, func(int) *Network { return n })
	for i := range n.nodes {
		copy(n.nodes[i].txFree, s.tx[i])
		copy(n.nodes[i].rxFree, s.rx[i])
	}
	if inj != nil {
		// SetChaos resets the FIFO floors; install the injector first, then
		// restore the parent's high-water marks.
		n.SetChaos(inj)
		for k, v := range s.floors {
			n.chaosFloor[k] = v
		}
		for k, v := range s.ctrlFloors {
			n.chaosCtrlFloor[k] = v
		}
	}
	return n
}
