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

// neighborhoodSet declares the six implementations. A rank's binding holds
// its halo, whose buffer contents are re-read at every execution (persistent
// request semantics).
var neighborhoodSet = &setDecl{
	name: "neighborhood",
	attrs: &AttributeSet{Attrs: []Attribute{
		{Name: "order", Values: []int{OrderAllAtOnce, OrderPairwise}},
		{Name: "primitive", Values: []int{PrimIsendIrecv, PrimSendrecv}},
		{Name: "handling", Values: []int{HandlePack, HandleDDT}},
	}},
	fns: []fnDecl{
		{name: "aao-isendirecv-pack", attrs: []int{OrderAllAtOnce, PrimIsendIrecv, HandlePack}, run: haloAllAtOnce},
		{name: "aao-isendirecv-ddt", attrs: []int{OrderAllAtOnce, PrimIsendIrecv, HandleDDT}, run: haloAllAtOnce},
		{name: "pairwise-isendirecv-pack", attrs: []int{OrderPairwise, PrimIsendIrecv, HandlePack}, run: haloPairwise},
		{name: "pairwise-isendirecv-ddt", attrs: []int{OrderPairwise, PrimIsendIrecv, HandleDDT}, run: haloPairwise},
		{name: "pairwise-sendrecv-pack", attrs: []int{OrderPairwise, PrimSendrecv, HandlePack}, run: haloPairwise},
		{name: "pairwise-sendrecv-ddt", attrs: []int{OrderPairwise, PrimSendrecv, HandleDDT}, run: haloPairwise},
	},
}

// neighborhoodGridSet is the op catalogue's neighborhood set: the same
// functions over the square periodic process grid of its communicator, whose
// local field has msg/8 columns of 8-byte cells (timing only).
var neighborhoodGridSet = &setDecl{name: neighborhoodSet.name, attrs: neighborhoodSet.attrs, fns: neighborhoodSet.fns,
	hook: func(b *binding) (err error) {
		g, cols := gridSide(b.c.Size()), max(b.send.Len()/8, 4)
		b.halo, err = Grid2D(b.c, g, g, cols, cols, 8, mpi.Buf{})
		return err
	}}

// gridSide is the side of a square grid of n ranks, 0 if n is not square.
func gridSide(n int) int {
	g := 1
	for (g+1)*(g+1) <= n {
		g++
	}
	if g*g != n {
		return 0
	}
	return g
}

// NeighborhoodSet builds the neighborhood-exchange function set on comm for
// the given halo.
func NeighborhoodSet(c *mpi.Comm, halo *Halo) (*FunctionSet, error) {
	if err := halo.Validate(); err != nil {
		return nil, err
	}
	b := bind(c, halo.Buf, halo.Buf, 0, neighborhoodSet)
	b.halo = halo
	return &b.fs, nil
}

const haloTag = 1 << 20 // neighborhood traffic tag

// packed is the message of h's region dt: dt's bytes packed from h's buffer,
// or dt's length alone.
func (h *Halo) packed(dt mpi.Datatype) mpi.Buf {
	if !h.Buf.HasData() {
		return mpi.Virtual(dt.Size())
	}
	p := make([]byte, dt.Size())
	dt.Pack(p, h.Buf.Data())
	return mpi.Bytes(p)
}

// inbox is the buffer a message for h's region dt lands in; unpack moves it
// into the region.
func (h *Halo) inbox(dt mpi.Datatype) mpi.Buf {
	if !h.Buf.HasData() {
		return mpi.Virtual(dt.Size())
	}
	return mpi.Bytes(make([]byte, dt.Size()))
}

func (h *Halo) unpack(dt mpi.Datatype, m mpi.Buf) {
	if h.Buf.HasData() {
		dt.Unpack(h.Buf.Data(), m.Data())
	}
}

// haloAllAtOnce posts every receive, then packs and posts every send, and
// returns the waitall that unpacks.
func haloAllAtOnce(b *binding, attrs []int) Started {
	c, h, handling := b.c, b.halo, attrs[2]
	w := &typedWaitall{c: c}
	for i, peer := range h.Peers {
		rt := h.RecvTypes[i]
		if handling == HandleDDT {
			chargeDDT(c, rt)
		}
		rbuf := h.inbox(rt)
		w.reqs = append(w.reqs, c.Irecv(peer, haloTag, rbuf))
		w.unpacks = append(w.unpacks, func() {
			h.unpack(rt, rbuf)
			if handling == HandlePack {
				c.RankState().ChargeCopy(rt.Size())
			}
		})
	}
	for i, peer := range h.Peers {
		st := h.SendTypes[i]
		sbuf := h.packed(st)
		if handling == HandlePack {
			c.RankState().ChargeCopy(st.Size())
		} else {
			chargeDDT(c, st)
		}
		w.reqs = append(w.reqs, c.Isend(peer, haloTag, sbuf))
	}
	return w
}

// haloPairwise exchanges one neighbor pair at a time, with Isend/Irecv or
// with blocking Sendrecv, and returns nil: a pairwise exchange completes
// synchronously, like a blocking implementation, which has no wait pointer
// (paper §III-E).
func haloPairwise(b *binding, attrs []int) Started {
	c, h, prim, handling := b.c, b.halo, attrs[1], attrs[2]
	// Shift-style: step i sends towards Peers[i] and receives from the
	// opposite end of the dimension — deadlock-free on periodic grids of
	// any size.
	for i, peer := range h.Peers {
		from := h.Peers[opposite(i)]
		st, rt := h.SendTypes[i], h.RecvTypes[opposite(i)]
		sbuf, rbuf := h.packed(st), h.inbox(rt)
		if handling == HandlePack {
			c.RankState().ChargeCopy(2 * st.Size())
		} else {
			chargeDDT(c, st)
			chargeDDT(c, rt)
		}
		if prim == PrimSendrecv {
			c.Sendrecv(peer, haloTag, sbuf, from, haloTag, rbuf)
		} else {
			rq := c.Irecv(from, haloTag, rbuf)
			sq := c.Isend(peer, haloTag, sbuf)
			c.Wait(rq, sq)
		}
		h.unpack(rt, rbuf)
	}
	return nil
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
