package core

import (
	"fmt"

	"nbctune/internal/mpi"
)

// The Cartesian neighborhood exchange function set — the communication
// pattern ADCL was originally built around (Gabriel & Huang [13], cited in
// §II/§III-C of the paper). Each rank exchanges a halo with its grid
// neighbors; the implementations differ in exactly the attribute dimensions
// the paper lists as typical:
//
//   - order: all-at-once (post everything, one waitall) vs pairwise
//     (one neighbor pair at a time),
//   - primitive: non-blocking Isend/Irecv vs blocking Sendrecv,
//   - data handling: pack/unpack staging vs derived datatypes.
//
// The full cross product yields eight implementations (pairwise+sendrecv
// covers the two blocking entries; all-at-once requires non-blocking posts,
// so the {aao, sendrecv} corners collapse — matching ADCL's real set, which
// is also not a complete grid for this operation).

// Neighborhood attribute values.
const (
	OrderAllAtOnce = 0
	OrderPairwise  = 1

	PrimIsendIrecv = 0
	PrimSendrecv   = 1

	HandlePack = 0
	HandleDDT  = 1
)

// Halo describes one rank's neighborhood exchange: for each neighbor, the
// peer rank, the layout of the interior data sent to it, and the layout of
// the ghost region its data lands in. Send and receive regions are disjoint
// (interior vs ghost), so the exchange result does not depend on ordering.
//
// Neighbors come in opposite-direction pairs: entries 2k and 2k+1 are the
// two ends of one dimension (e.g. north/south). The pairwise
// implementations rely on this to exchange shift-style — send towards
// Peers[i] while receiving from the opposite end — which is deadlock-free
// on periodic grids of any cycle length.
type Halo struct {
	Peers     []int          // comm ranks, in opposite pairs
	SendTypes []mpi.Datatype // interior layout sent to each peer
	RecvTypes []mpi.Datatype // ghost layout received from each peer
	Buf       mpi.Buf        // local buffer (virtual = timing only)
}

// opposite returns the index of the peer at the other end of i's dimension.
func opposite(i int) int { return i ^ 1 }

// Validate checks structural consistency.
func (h *Halo) Validate() error {
	if len(h.Peers) == 0 {
		return fmt.Errorf("adcl: halo with no neighbors")
	}
	if len(h.Peers)%2 != 0 {
		return fmt.Errorf("adcl: halo peers must come in opposite pairs, have %d", len(h.Peers))
	}
	if len(h.SendTypes) != len(h.Peers) || len(h.RecvTypes) != len(h.Peers) {
		return fmt.Errorf("adcl: halo with %d peers needs as many send and recv datatypes", len(h.Peers))
	}
	for i := range h.Peers {
		if h.SendTypes[i].Size() != h.RecvTypes[i].Size() {
			return fmt.Errorf("adcl: peer %d send size %d != recv size %d",
				i, h.SendTypes[i].Size(), h.RecvTypes[i].Size())
		}
		if h.Buf.HasData() {
			if h.SendTypes[i].Extent() > h.Buf.Len() || h.RecvTypes[i].Extent() > h.Buf.Len() {
				return fmt.Errorf("adcl: datatype %d exceeds buffer", i)
			}
		}
	}
	return nil
}

// typedWaitall adapts a set of requests plus deferred unpacks to Started.
type typedWaitall struct {
	c       *mpi.Comm
	reqs    []*mpi.Request
	unpacks []func()
}

func (w *typedWaitall) Progress() bool { return w.c.Test(w.reqs...) }
func (w *typedWaitall) Wait() {
	w.c.Wait(w.reqs...)
	for _, f := range w.unpacks {
		f()
	}
}

// NeighborhoodSet builds the neighborhood-exchange function set on comm for
// the given halo. The halo's buffer contents are re-read at every execution
// (persistent request semantics).
func NeighborhoodSet(c *mpi.Comm, halo *Halo) (*FunctionSet, error) {
	if err := halo.Validate(); err != nil {
		return nil, err
	}
	fs := &FunctionSet{
		Name: "neighborhood",
		AttrSet: &AttributeSet{Attrs: []Attribute{
			{Name: "order", Values: []int{OrderAllAtOnce, OrderPairwise}},
			{Name: "primitive", Values: []int{PrimIsendIrecv, PrimSendrecv}},
			{Name: "handling", Values: []int{HandlePack, HandleDDT}},
		}},
	}
	const tag = 1 << 20 // neighborhood traffic tag

	// Staging buffers per peer, allocated once (persistent).
	mkStagings := func() (sends, recvs [][]byte) {
		sends = make([][]byte, len(halo.Peers))
		recvs = make([][]byte, len(halo.Peers))
		for i := range halo.Peers {
			if halo.Buf.HasData() {
				sends[i] = make([]byte, halo.SendTypes[i].Size())
				recvs[i] = make([]byte, halo.RecvTypes[i].Size())
			}
		}
		return
	}

	// All-at-once, Isend/Irecv, for both data handlings.
	for _, handling := range []int{HandlePack, HandleDDT} {
		handling := handling
		sends, recvs := mkStagings()
		name := "aao-isendirecv-pack"
		if handling == HandleDDT {
			name = "aao-isendirecv-ddt"
		}
		fs.Fns = append(fs.Fns, &Function{
			Name:  name,
			Attrs: []int{OrderAllAtOnce, PrimIsendIrecv, handling},
			Start: func() Started {
				w := &typedWaitall{c: c}
				for i, peer := range halo.Peers {
					rt := halo.RecvTypes[i]
					size := rt.Size()
					if handling == HandleDDT {
						chargeDDT(c, rt)
					}
					rbuf := mpi.Virtual(size)
					if halo.Buf.HasData() {
						rbuf = mpi.Bytes(recvs[i])
					}
					w.reqs = append(w.reqs, c.Irecv(peer, tag, rbuf))
					i := i
					w.unpacks = append(w.unpacks, func() {
						if halo.Buf.HasData() {
							halo.RecvTypes[i].Unpack(halo.Buf.Data(), recvs[i])
						}
						if handling == HandlePack {
							c.RankState().ChargeCopy(halo.RecvTypes[i].Size())
						}
					})
				}
				for i, peer := range halo.Peers {
					st := halo.SendTypes[i]
					size := st.Size()
					sbuf := mpi.Virtual(size)
					if halo.Buf.HasData() {
						st.Pack(sends[i], halo.Buf.Data())
						sbuf = mpi.Bytes(sends[i])
					}
					if handling == HandlePack {
						c.RankState().ChargeCopy(size)
					} else {
						chargeDDT(c, st)
					}
					w.reqs = append(w.reqs, c.Isend(peer, tag, sbuf))
				}
				return w
			},
		})
	}

	// Pairwise orderings: with Isend/Irecv per pair, and with blocking
	// Sendrecv (the latter returns nil: blocking implementations have no
	// wait pointer, paper §III-E).
	for _, prim := range []int{PrimIsendIrecv, PrimSendrecv} {
		for _, handling := range []int{HandlePack, HandleDDT} {
			prim, handling := prim, handling
			sends, recvs := mkStagings()
			name := "pairwise-"
			if prim == PrimIsendIrecv {
				name += "isendirecv-"
			} else {
				name += "sendrecv-"
			}
			if handling == HandlePack {
				name += "pack"
			} else {
				name += "ddt"
			}
			fs.Fns = append(fs.Fns, &Function{
				Name:  name,
				Attrs: []int{OrderPairwise, prim, handling},
				Start: func() Started {
					// Shift-style: step i sends towards Peers[i] and
					// receives from the opposite end of the dimension —
					// deadlock-free on periodic grids of any size.
					for i, peer := range halo.Peers {
						opp := opposite(i)
						from := halo.Peers[opp]
						st, rt := halo.SendTypes[i], halo.RecvTypes[opp]
						size := st.Size()
						sbuf, rbuf := mpi.Virtual(size), mpi.Virtual(size)
						if halo.Buf.HasData() {
							st.Pack(sends[i], halo.Buf.Data())
							sbuf, rbuf = mpi.Bytes(sends[i]), mpi.Bytes(recvs[opp])
						}
						if handling == HandlePack {
							c.RankState().ChargeCopy(2 * size)
						} else {
							chargeDDT(c, st)
							chargeDDT(c, rt)
						}
						if prim == PrimSendrecv {
							c.Sendrecv(peer, tag, sbuf, from, tag, rbuf)
						} else {
							rq := c.Irecv(from, tag, rbuf)
							sq := c.Isend(peer, tag, sbuf)
							c.Wait(rq, sq)
						}
						if halo.Buf.HasData() {
							rt.Unpack(halo.Buf.Data(), recvs[opp])
						}
					}
					return nil // completed synchronously
				},
			})
		}
	}
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	return fs, nil
}

// chargeDDT accounts the derived-datatype descriptor overhead for one
// message of the given layout.
func chargeDDT(c *mpi.Comm, dt mpi.Datatype) {
	c.RankState().ChargeDDTBlocks(ddtBlocks(dt))
}

func ddtBlocks(dt mpi.Datatype) int {
	switch t := dt.(type) {
	case mpi.Vector:
		return t.Count
	case mpi.AtOffset:
		return ddtBlocks(t.Inner)
	default:
		return 1
	}
}

// Grid2D builds the halo for a periodic 2D grid decomposition over a local
// field of rows x cols cells of elemSize bytes, with a one-cell ghost frame:
// rows 0 and rows-1 and columns 0 and cols-1 are ghost cells, the rest is
// interior. Each rank sends its outermost interior rows (contiguous) to its
// north/south neighbors and its outermost interior columns (strided
// vectors) to west/east, receiving into the opposite ghost regions.
// rows and cols must be at least 4 (two ghost + two interior lines).
func Grid2D(c *mpi.Comm, gridW, gridH, rows, cols, elemSize int, buf mpi.Buf) (*Halo, error) {
	if gridW*gridH != c.Size() {
		return nil, fmt.Errorf("adcl: %dx%d grid needs %d ranks, have %d", gridW, gridH, gridW*gridH, c.Size())
	}
	if rows < 4 || cols < 4 {
		return nil, fmt.Errorf("adcl: grid field %dx%d too small for a ghost frame", rows, cols)
	}
	me := c.Rank()
	x, y := me%gridW, me/gridW
	west := y*gridW + (x-1+gridW)%gridW
	east := y*gridW + (x+1)%gridW
	north := ((y-1+gridH)%gridH)*gridW + x
	south := ((y+1)%gridH)*gridW + x
	rowBytes := cols * elemSize
	row := func(r int) mpi.Datatype { return mpi.AtOffset{Off: r * rowBytes, Inner: mpi.Contig(rowBytes)} }
	col := func(cc int) mpi.Datatype {
		return mpi.AtOffset{Off: cc * elemSize, Inner: mpi.Vector{Count: rows, BlockLen: elemSize, Stride: rowBytes}}
	}
	h := &Halo{
		Peers:     []int{north, south, west, east},
		SendTypes: []mpi.Datatype{row(1), row(rows - 2), col(1), col(cols - 2)},
		RecvTypes: []mpi.Datatype{row(0), row(rows - 1), col(0), col(cols - 1)},
		Buf:       buf,
	}
	return h, h.Validate()
}
