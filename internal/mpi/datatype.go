package mpi

// Derived datatypes. The paper lists "the method used to handle
// discontiguous data (e.g. pack/unpack, derived data types, etc.)" among the
// typical attributes characterizing implementations in an ADCL function set
// (§III-C). This file provides the layouts; core.NeighborhoodSet's
// implementations handle them either way:
//
//   - pack/unpack: gather the discontiguous elements into a contiguous
//     staging buffer (paying memcpy time), send contiguously;
//   - derived datatype: describe the layout to the library and send in
//     place, paying a per-message descriptor overhead and a small wire
//     inefficiency instead of the copy.
//
// Which is faster depends on the layout's density and the network — another
// tuning dimension.

// Datatype describes a (possibly discontiguous) data layout in a buffer.
type Datatype interface {
	// Size returns the payload bytes the type selects.
	Size() int
	// Extent returns the span of buffer bytes the layout covers.
	Extent() int
	// Pack gathers the selected bytes from src (length >= Extent) into dst
	// (length >= Size).
	Pack(dst, src []byte)
	// Unpack scatters size bytes from src into dst's selected positions.
	Unpack(dst, src []byte)
}

// Contig is n contiguous bytes.
type Contig int

// Size implements Datatype.
func (c Contig) Size() int { return int(c) }

// Extent implements Datatype.
func (c Contig) Extent() int { return int(c) }

// Pack implements Datatype.
func (c Contig) Pack(dst, src []byte) { copy(dst[:c], src[:c]) }

// Unpack implements Datatype.
func (c Contig) Unpack(dst, src []byte) { copy(dst[:c], src[:c]) }

// Vector is the classic strided layout: Count blocks of BlockLen bytes,
// the start of consecutive blocks Stride bytes apart (Stride >= BlockLen).
type Vector struct {
	Count    int
	BlockLen int
	Stride   int
}

// Size implements Datatype.
func (v Vector) Size() int { return v.Count * v.BlockLen }

// Extent implements Datatype.
func (v Vector) Extent() int {
	if v.Count == 0 {
		return 0
	}
	return (v.Count-1)*v.Stride + v.BlockLen
}

// Pack implements Datatype.
func (v Vector) Pack(dst, src []byte) {
	for i := 0; i < v.Count; i++ {
		copy(dst[i*v.BlockLen:(i+1)*v.BlockLen], src[i*v.Stride:i*v.Stride+v.BlockLen])
	}
}

// Unpack implements Datatype.
func (v Vector) Unpack(dst, src []byte) {
	for i := 0; i < v.Count; i++ {
		copy(dst[i*v.Stride:i*v.Stride+v.BlockLen], src[i*v.BlockLen:(i+1)*v.BlockLen])
	}
}

// AtOffset places a datatype at a byte offset within the buffer, composing
// layouts (e.g. "the second row" = AtOffset(rowBytes, Contig(rowBytes))).
type AtOffset struct {
	Off   int
	Inner Datatype
}

// Size implements Datatype.
func (o AtOffset) Size() int { return o.Inner.Size() }

// Extent implements Datatype.
func (o AtOffset) Extent() int { return o.Off + o.Inner.Extent() }

// Pack implements Datatype.
func (o AtOffset) Pack(dst, src []byte) { o.Inner.Pack(dst, src[o.Off:]) }

// Unpack implements Datatype.
func (o AtOffset) Unpack(dst, src []byte) { o.Inner.Unpack(dst[o.Off:], src) }

// ddtPerBlockOverhead models the cost of sending a derived datatype in place:
// the NIC's gather/scatter descriptors add per-block handling that shows up
// as extra injection overhead proportional to the number of blocks.
const ddtPerBlockOverhead = 6e-8 // seconds per discontiguous block
