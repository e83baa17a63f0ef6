package mpi

import "unsafe"

// Buf is the payload-discipline seam for every message the simulated stack
// carries: a length plus, optionally, real backing bytes.
//
// Virtual-time results are payload-independent — every cost the simulator
// charges (copy time, injection overhead, wire occupancy) is computed from
// sizes, never from data — so by default runs carry length-only descriptors
// and no byte is ever copied per hop. Only runs that opt into data
// verification (bench's -data mode) attach real storage, and then sends
// clone, transfers deliver, and receives copy exactly as a real MPI would.
//
// The zero Buf is an empty virtual payload.
//
// Every schedule entry and in-flight message carries a Buf, so it is 16 bytes:
// a pointer to the first byte of real storage (nil: virtual) and the length.
// Data rebuilds the slice with unsafe.Slice, the package's one use of unsafe;
// Slice and Clone go through Data, so they stay bounds-checked. An empty
// non-nil slice keeps a non-nil pointer and so still has data.
type Buf struct {
	p *byte
	n int
}

// Bytes wraps real storage: the message carries (and moves) p's bytes.
func Bytes(p []byte) Buf { return Buf{p: unsafe.SliceData(p), n: len(p)} }

// Virtual describes n bytes of payload that exist only as timing: no
// storage is attached and nothing is copied anywhere along the path.
func Virtual(n int) Buf {
	if n < 0 {
		n = 0
	}
	return Buf{n: n}
}

// Len returns the payload size in bytes.
func (b Buf) Len() int { return b.n }

// HasData reports whether real storage is attached.
func (b Buf) HasData() bool { return b.p != nil }

// Data returns the backing bytes (nil for virtual payloads).
func (b Buf) Data() []byte {
	if b.p == nil {
		return nil
	}
	return unsafe.Slice(b.p, b.n)
}

// Slice returns the n-byte sub-payload starting at byte off. Slicing a
// virtual payload stays virtual; slicing real storage aliases it, so writes
// through the slice are visible in the parent (the sub-buffer semantics
// collective schedules rely on).
func (b Buf) Slice(off, n int) Buf {
	if b.p == nil {
		return Virtual(n)
	}
	return Bytes(b.Data()[off : off+n])
}

// Clone returns a Buf with private storage holding a copy of b's bytes.
// Cloning a virtual payload is free and stays virtual (eager sends use this
// for buffered-send semantics).
func (b Buf) Clone() Buf {
	if b.p == nil {
		return b
	}
	return Bytes(append([]byte(nil), b.Data()...))
}

// Copy moves min(dst.Len, src.Len) bytes from src to dst when both sides
// have real storage; with any virtual side it is a no-op, mirroring how the
// simulated library elides payload work on virtual runs.
func Copy(dst, src Buf) { copy(dst.Data(), src.Data()) }
