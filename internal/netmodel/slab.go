package netmodel

import "unsafe"

// Slab hands out fresh zeroed records of T for a pool whose free list has run
// dry: netmodel's rxOp pool and mpi's request, envelope and transfer pools.
// It carves them from chunks, so a burst of n live records costs O(log n)
// allocations instead of n. The first chunk holds slabFirst records and each
// next one twice as many, up to the most that fit in slabBytes, the largest
// size class the runtime serves from its per-size caches; past that, every
// chunk is of that size. A chunk stays reachable while any of its records is,
// so a record its owner drops without freeing is reclaimed with its chunk.
// The zero Slab is ready and has allocated nothing. A Slab is not safe for
// concurrent use; each engine's records come from its own.
type Slab[T any] struct {
	chunk []T // the unused rest of the current chunk
	n     int // the record count of the current chunk
}

const (
	slabFirst = 8
	slabBytes = 32 << 10
)

// New returns a zeroed record that nothing else references.
func (s *Slab[T]) New() *T {
	if len(s.chunk) == 0 {
		var zero T
		s.n = max(slabFirst, min(2*s.n, slabBytes/int(unsafe.Sizeof(zero))))
		s.chunk = make([]T, s.n)
	}
	t := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return t
}
