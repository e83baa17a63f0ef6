package netmodel

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"nbctune/internal/sim"
)

// Slab hands out fresh zeroed records of T for a pool whose free list has run
// dry: netmodel's rxOp pool and mpi's request, envelope and transfer pools.
// It carves them from chunks, so a burst of n live records costs O(log n)
// allocations instead of n. The first chunk holds slabFirst records and each
// next one twice as many, up to the most that fit in slabBytes, the largest
// size class the runtime serves from its per-size caches; past that, every
// chunk is of that size.
//
// Every record is named by an int32 index that encodes the shard owning the
// slab, the chunk and the slot, and 0 names no record. Records link to each
// other by index, so a record type without pointer fields makes chunks the
// collector never traces. The chunks hang off a directory the owner shard
// alone writes; another shard resolves an index (Slabs.At) only after the
// record crossed a window barrier, which orders the directory entry before
// the read, and the directory is republished through an atomic pointer when
// it grows. Chunks therefore live until Slabs.Release puts them in the
// slab's pool, which new chunks are drawn from, or until the world is
// dropped: a record its owner drops without freeing is reclaimed with all the
// others, not with its chunk. A new Slab has allocated no chunk and no
// directory. Only its owner shard may call New.
type Slab[T any] struct {
	// dir is the published directory: its first entry, which stays nil so
	// that index 0 names nothing, followed by the first element of every
	// chunk. At reaches a record through it in two loads.
	dir    atomic.Pointer[*T]
	chunks []*T // the owner's view of the directory, whose first entry dir points at
	chunk  []T  // the current chunk
	used   int  // records of chunk handed out: a cursor, so New stores no pointer
	next   int32
	shard  int32
	pool   *sim.ChunkPool[T] // where grow draws chunks and Release puts them; nil: neither
	_      [64]byte          // the slabs of a world's shards sit side by side: keep their owners' writes off each other's cache lines
}

const (
	slabFirst = 8
	slabBytes = 32 << 10

	// An index is shard:7 | chunk:15 | slot:10, read as a uint32.
	slabSlotBits  = 10
	slabChunkBits = 15
	slabShardBits = 7

	// MaxShards is the most shards whose records an index can name.
	MaxShards = 1 << slabShardBits
)

// Slabs is one Slab per shard of a world, indexed by shard: the set an index
// of any of them resolves against.
type Slabs[T any] []Slab[T]

// NewSlabs returns the slabs of a world of k shards, none of which has
// allocated a chunk yet, drawing their chunks from pool (nil: carving them).
func NewSlabs[T any](k int, pool *sim.ChunkPool[T]) Slabs[T] {
	if k < 1 || k > MaxShards {
		panic(fmt.Sprintf("netmodel: %d shards, an index names at most %d", k, MaxShards))
	}
	ss := make(Slabs[T], k)
	for i := range ss {
		ss[i].shard, ss[i].pool = int32(i), pool
	}
	return ss
}

// Release hands every slab's chunks to its pool and leaves it as NewSlabs
// made it: no record it handed out may be reached again.
func (ss Slabs[T]) Release() {
	for i := range ss {
		s := &ss[i]
		for c := 1; c < len(s.chunks); c++ {
			s.pool.Put(c, s.chunks[c])
		}
		s.dir.Store(nil)
		s.chunks, s.chunk, s.used, s.next = nil, nil, 0, 0
	}
}

// At returns the record an index names. The index must be one New returned:
// At does no bounds check, the directory entry and the slot being there by
// construction.
func (ss Slabs[T]) At(i int32) *T {
	u := uint32(i)
	d := ss[u>>(slabSlotBits+slabChunkBits)].dir.Load()
	base := *(**T)(unsafe.Add(unsafe.Pointer(d), uintptr(u>>slabSlotBits&(1<<slabChunkBits-1))*unsafe.Sizeof(d)))
	return (*T)(unsafe.Add(unsafe.Pointer(base), uintptr(u&(1<<slabSlotBits-1))*unsafe.Sizeof(*base)))
}

// New returns a zeroed record that nothing else references, and its index.
func (s *Slab[T]) New() (*T, int32) {
	if s.used == len(s.chunk) {
		s.grow()
	}
	t, i := &s.chunk[s.used], s.next
	s.used++
	s.next++
	return t, i
}

// grow carves the next chunk and enters it in the directory, doubling the
// directory into a new array when it is full: an array a reader may hold is
// never written again at an entry it can reach.
func (s *Slab[T]) grow() {
	var zero T
	n := max(slabFirst, min(2*len(s.chunk), slabBytes/int(unsafe.Sizeof(zero)), 1<<slabSlotBits))
	if len(s.chunks) == 1<<slabChunkBits {
		panic(fmt.Sprintf("netmodel: shard %d has carved %d chunks of %T, all an index can name", s.shard, len(s.chunks)-1, zero))
	}
	if len(s.chunks) == cap(s.chunks) {
		grown := make([]*T, max(1, len(s.chunks)), max(8, 2*len(s.chunks)))
		copy(grown, s.chunks)
		s.chunks = grown
		s.dir.Store(&grown[0])
	}
	s.chunk, s.used = s.pool.Get(len(s.chunks), n), 0
	s.next = s.shard<<(slabSlotBits+slabChunkBits) | int32(len(s.chunks))<<slabSlotBits
	s.chunks = append(s.chunks, &s.chunk[0])
}
