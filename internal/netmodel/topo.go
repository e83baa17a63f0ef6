package netmodel

// Topo is an immutable topology table shared by everything that reasons
// about node placement: schedule builders (torus-aware trees), the platform
// layer, and diagnostics. It is built once per Network and shared by
// reference across snapshots and forks — at 16K ranks a per-world or
// per-fork copy would dominate the footprint the scale work just removed,
// and immutability makes the single table safe under concurrent forked runs.
type Topo struct {
	topology Topology
	dims     [3]int
	nodes    int
	coords   []int32 // x,y,z per node, 3*nodes entries; nil under Flat
}

// newTopo precomputes the coordinate table for a node count under p. Under
// Torus3D the table covers the full torus capacity, not just the occupied
// node-id prefix: tree builders walk dimension-ordered routes that pass
// through unoccupied positions on a sparsely placed job.
func newTopo(p *Params, nodes int) *Topo {
	t := &Topo{topology: p.Topology, dims: p.TorusDims, nodes: nodes}
	if p.Topology == Torus3D {
		if full := p.TorusDims[0] * p.TorusDims[1] * p.TorusDims[2]; nodes < full {
			nodes = full
			t.nodes = full
		}
		t.coords = make([]int32, 3*nodes)
		for n := 0; n < nodes; n++ {
			x, y, z := coords(n, p.TorusDims)
			t.coords[3*n], t.coords[3*n+1], t.coords[3*n+2] = int32(x), int32(y), int32(z)
		}
	}
	return t
}

// Torus reports whether the table describes a 3D torus.
func (t *Topo) Torus() bool { return t.topology == Torus3D }

// NumNodes returns the number of nodes the table covers: the full torus
// capacity under Torus3D, the network's node count under Flat.
func (t *Topo) NumNodes() int { return t.nodes }

// Dims returns the torus dimensions ({0,0,0} under Flat).
func (t *Topo) Dims() [3]int {
	if t.topology != Torus3D {
		return [3]int{}
	}
	return t.dims
}

// Coords returns a node's torus coordinates (0,0,0 under Flat).
func (t *Topo) Coords(node int) (x, y, z int) {
	if t.coords == nil {
		return 0, 0, 0
	}
	return int(t.coords[3*node]), int(t.coords[3*node+1]), int(t.coords[3*node+2])
}

// NodeAt returns the node id at the given torus coordinates (the inverse of
// Coords). Under Flat it returns x.
func (t *Topo) NodeAt(x, y, z int) int {
	if t.topology != Torus3D {
		return x
	}
	return x + t.dims[0]*(y+t.dims[1]*z)
}

// Hops returns the hop distance between two nodes: 0 for the same node, 1
// between distinct nodes under Flat, and the wrapped Manhattan distance on
// the torus.
func (t *Topo) Hops(a, b int) int {
	if a == b {
		return 0
	}
	if t.coords == nil {
		return 1
	}
	return torusDist(int(t.coords[3*a]), int(t.coords[3*b]), t.dims[0]) +
		torusDist(int(t.coords[3*a+1]), int(t.coords[3*b+1]), t.dims[1]) +
		torusDist(int(t.coords[3*a+2]), int(t.coords[3*b+2]), t.dims[2])
}

// wireLatency returns the one-way latency between two distinct nodes: the
// Latency of one hop, plus HopLatency for each further torus hop.
func (n *Network) wireLatency(a, b int) float64 {
	h := n.topo.Hops(a, b)
	if h <= 1 {
		return n.p.Latency
	}
	return n.p.Latency + float64(h-1)*n.p.HopLatency
}

// Topo returns the network's shared topology table.
func (n *Network) Topo() *Topo { return n.topo }
