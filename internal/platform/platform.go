// Package platform provides calibrated parameter presets for the four
// machines of the paper's evaluation: the crill and whale InfiniBand
// clusters, whale's Gigabit-Ethernet configuration (whale-tcp), and an IBM
// BlueGene/P-like system. The presets are not measurements of those systems
// — they are parameter sets chosen so the simulated interconnects exhibit
// the qualitative properties the paper attributes to each platform
// (DESIGN.md, substitution 1). It is layer S8 of the substitution map
// (DESIGN.md §1); the invariant is that a preset plus a seed fully
// determines the simulated machine — Assemble is the single assembly point
// wiring sim, netmodel and mpi together.
package platform

import (
	"fmt"
	"sort"

	"nbctune/internal/chaos"
	"nbctune/internal/chaos/profiles"
	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

// Placement chooses how ranks map to nodes.
type Placement int

const (
	// Cyclic spreads consecutive ranks across nodes (mpirun --map-by node),
	// the layout used for the paper-style experiments.
	Cyclic Placement = iota
	// Block fills each node before moving to the next (--map-by slot).
	Block
)

// Platform bundles an interconnect parameter set with host properties.
type Platform struct {
	Name         string
	Nodes        int
	CoresPerNode int
	Net          netmodel.Params
	// FlopRate is the effective per-rank compute rate in flop/s, used by
	// application cost models (the FFT kernel).
	FlopRate float64
	// Noise is the OS noise every compute phase of a rank absorbs, drawn
	// from the rank's own stream (mpi.Options.Noise). Plain data like the
	// rest of the preset, so it is part of every fingerprint that holds one.
	Noise chaos.OSNoise
}

// Crill models the 16-node, 48-core AMD Magny-Cours cluster with two 4x DDR
// InfiniBand HCAs per node.
func Crill() Platform {
	return Platform{
		Name:         "crill",
		Nodes:        16,
		CoresPerNode: 48,
		FlopRate:     2.0e9,
		Noise:        chaos.OSNoise{NoiseRel: 0.004, DetourProb: 0.002, DetourTime: 1e-3},
		Net: netmodel.Params{
			Name:          "crill-ib",
			Latency:       1.6e-6,
			Bandwidth:     1.6e9,
			NICs:          2,
			MsgGap:        2.5e-6,
			OSend:         2.0e-6,
			ORecv:         2.0e-6,
			OPost:         5e-7,
			OProgress:     7e-7,
			OTest:         1e-7,
			OMatch:        4e-8,
			EagerLimit:    16 * 1024,
			RDMA:          true,
			CtrlBytes:     128,
			CopyBandwidth: 3.2e9,
			ShmLatency:    5e-7,
			ShmBandwidth:  3.5e9,
			IncastK:       6,
			IncastBeta:    0.06,
			IncastCap:     1.8,
		},
	}
}

// Whale models the 64-node, 8-core AMD Barcelona cluster with one DDR
// InfiniBand HCA per node.
func Whale() Platform {
	return Platform{
		Name:         "whale",
		Nodes:        64,
		CoresPerNode: 8,
		FlopRate:     1.8e9,
		Noise:        chaos.OSNoise{NoiseRel: 0.005, DetourProb: 0.003, DetourTime: 1.2e-3},
		Net: netmodel.Params{
			Name:          "whale-ib",
			Latency:       2.1e-6,
			Bandwidth:     1.25e9,
			NICs:          1,
			MsgGap:        2.5e-6,
			OSend:         2.2e-6,
			ORecv:         2.2e-6,
			OPost:         6e-7,
			OProgress:     8e-7,
			OTest:         1.2e-7,
			OMatch:        5e-8,
			EagerLimit:    16 * 1024,
			RDMA:          true,
			CtrlBytes:     128,
			CopyBandwidth: 2.0e9,
			ShmLatency:    6e-7,
			ShmBandwidth:  2.6e9,
			IncastK:       4,
			IncastBeta:    0.08,
			IncastCap:     2.0,
		},
	}
}

// WhaleTCP is the whale cluster over its Gigabit Ethernet interconnect:
// high latency, ~118 MB/s on the wire, host-attended data movement (per-byte
// CPU cost inside MPI calls), and severe TCP incast collapse.
func WhaleTCP() Platform {
	p := Whale()
	p.Name = "whale-tcp"
	p.Net = netmodel.Params{
		Name:          "whale-gige",
		Latency:       4.5e-5,
		Bandwidth:     1.18e8,
		NICs:          1,
		MsgGap:        5e-6,
		OSend:         6e-6,
		ORecv:         6e-6,
		OPost:         4e-7,
		OProgress:     2e-6,
		OTest:         2e-7,
		OMatch:        6e-8,
		EagerLimit:    64 * 1024,
		RDMA:          false,
		CtrlBytes:     128,
		CopyBandwidth: 2.4e9,
		ShmLatency:    6e-7,
		ShmBandwidth:  3.0e9,
		IncastK:       1,
		IncastBeta:    0.9,
		IncastCap:     14,
	}
	return p
}

// BGP models an IBM BlueGene/P-like partition: slow cores running a
// noiseless compute-node kernel, a 3D-torus-like interconnect with several
// low-bandwidth links per node and DMA-driven messaging.
func BGP() Platform {
	return Platform{
		Name:         "bgp",
		Nodes:        256,
		CoresPerNode: 4,
		FlopRate:     0.7e9, // no Noise: CNK is effectively noiseless
		Net: netmodel.Params{
			Name:          "bgp-torus",
			Latency:       3.5e-6,
			Bandwidth:     3.75e8,
			NICs:          3,
			MsgGap:        2e-6,
			OSend:         1.8e-6,
			ORecv:         1.8e-6,
			OPost:         6e-7,
			OProgress:     2.5e-6,
			OTest:         2e-7,
			OMatch:        8e-8,
			EagerLimit:    4 * 1024,
			RDMA:          true,
			CtrlBytes:     128,
			CopyBandwidth: 1.3e9,
			ShmLatency:    8e-7,
			ShmBandwidth:  1.6e9,
			IncastK:       3,
			IncastBeta:    0.12,
			IncastCap:     5,
			Topology:      netmodel.Torus3D,
			TorusDims:     [3]int{8, 8, 4},
			HopLatency:    8e-8,
		},
	}
}

// BGPScale is the BGP preset scaled out to a 16x16x16 torus (4096 nodes,
// 16384 cores), the machine size the scale experiments (E15) tune at. Link
// and host parameters are identical to BGP; only the partition geometry
// changes, so ≤128-rank results on the two presets are directly comparable.
func BGPScale() Platform {
	p := BGP()
	p.Name = "bgp-16k"
	p.Nodes = 4096
	p.Net.Name = "bgp-torus-16k"
	p.Net.TorusDims = [3]int{16, 16, 16}
	return p
}

// All returns every preset.
func All() []Platform {
	return []Platform{Crill(), Whale(), WhaleTCP(), BGP(), BGPScale()}
}

// ByName looks a preset up by its name.
func ByName(name string) (Platform, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range All() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return Platform{}, fmt.Errorf("platform: unknown platform %q (have %v)", name, names)
}

// NodeOf builds the rank->node placement for nprocs ranks.
func (p Platform) NodeOf(nprocs int, pl Placement) ([]int, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("platform: nprocs must be positive")
	}
	if nprocs > p.Nodes*p.CoresPerNode {
		return nil, fmt.Errorf("platform %s: %d ranks exceed capacity %d",
			p.Name, nprocs, p.Nodes*p.CoresPerNode)
	}
	nodeOf := make([]int, nprocs)
	switch pl {
	case Cyclic:
		for r := range nodeOf {
			nodeOf[r] = r % p.Nodes
		}
	case Block:
		for r := range nodeOf {
			nodeOf[r] = r / p.CoresPerNode
		}
	default:
		return nil, fmt.Errorf("platform: unknown placement %d", pl)
	}
	return nodeOf, nil
}

// NewWorld builds an engine, network, and MPI world for nprocs ranks on this
// platform with cyclic placement.
func (p Platform) NewWorld(nprocs int, seed int64) (*sim.Engine, *mpi.World, error) {
	return p.NewWorldPlaced(nprocs, seed, Cyclic)
}

// NewWorldPlaced is NewWorld with an explicit placement policy.
func (p Platform) NewWorldPlaced(nprocs int, seed int64, pl Placement) (*sim.Engine, *mpi.World, error) {
	return withEngine(p.Assemble(nprocs, seed, pl, "", 0))
}

// NewWorldPDES builds nprocs ranks in placement pl on a clean machine, on the
// sharded (PDES) engine of netmodel.NewSharded, which decides the partition
// from shards. Every simulated quantity is independent of the shard count but
// differs from Assemble's sequential engine (DESIGN.md §2); snapshot/fork is
// not available on a sharded world. No command runs one.
func (p Platform) NewWorldPDES(nprocs int, seed int64, pl Placement, shards int) (*mpi.World, error) {
	nodeOf, err := p.NodeOf(nprocs, pl)
	if err != nil {
		return nil, err
	}
	nets, win, err := netmodel.NewSharded(p.Net, nodeOf, shards, seed)
	if err != nil {
		return nil, err
	}
	return mpi.NewWorld(nets, win, nprocs, mpi.Options{Seed: seed, Noise: p.Noise})
}

// withEngine returns a world without windows beside its engine.
func withEngine(w *mpi.World, err error) (*sim.Engine, *mpi.World, error) {
	if err != nil {
		return nil, nil, err
	}
	return w.Engine(), w, nil
}

// Assemble builds the simulated machine for nprocs ranks in placement pl:
// the network and the MPI world over it, on the sequential engine.
//
// chaosName names a shipped fault/noise injection profile: the form the
// drivers' -chaos flag, bench specs and guideline scenarios carry. "" and
// "off" are exactly the clean build (no injector is constructed, no stream
// is seeded, the arithmetic on every hot path is bit-identical). Otherwise
// the network gets a chaos.Injector of the profile, seeded with
// chaosSeed (link degradation, bursts, jitter, slow NICs, regime shifts), and
// the MPI world draws its ranks' OS detours from it — keeping this the single
// assembly point for the whole simulated machine, adversity included.
func (p Platform) Assemble(nprocs int, seed int64, pl Placement, chaosName string, chaosSeed int64) (*mpi.World, error) {
	nodeOf, err := p.NodeOf(nprocs, pl)
	if err != nil {
		return nil, err
	}
	net, err := netmodel.New(sim.NewEngine(seed), p.Net, nodeOf)
	if err != nil {
		return nil, err
	}
	prof, err := profiles.ByName(chaosName)
	if err != nil {
		return nil, err
	}
	if prof != nil {
		inj, err := chaos.NewInjector(*prof, chaosSeed, nprocs, p.Nodes)
		if err != nil {
			return nil, err
		}
		net.SetChaos(inj)
	}
	return mpi.NewWorld([]*netmodel.Network{net}, nil, nprocs, mpi.Options{Seed: seed, Noise: p.Noise})
}
