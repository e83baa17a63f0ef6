package sim

import "math/rand"

// ClonableRand is a deterministic random stream that can be duplicated
// mid-stream. math/rand's default source cannot export its internal state,
// so the stream counts how many source words it has consumed; a clone is a
// fresh source with the same seed fast-forwarded by that count. Both copies
// then produce the identical remaining sequence while staying fully
// independent — the property World.Snapshot/Fork needs to hand every fork
// the same noise stream the parent would have seen.
//
// The wrapper changes nothing about the values drawn: rand.New over the
// default source already uses the Source64 path, and the counting shim
// forwards both Int63 and Uint64 one-for-one, so streams seeded the same
// way as before this type existed remain bit-identical.
type ClonableRand struct {
	// Rand is the stream itself; draw from it directly.
	Rand *rand.Rand

	seed int64
	cnt  *countingSource
}

// countingSource wraps a Source64 and counts every word drawn. Each Int63
// call on the default source consumes exactly one Uint64 word, so a single
// counter positions the stream exactly.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(int64) {
	panic("sim: reseeding a clonable stream is not supported")
}

// NewClonableRand returns a stream producing the same sequence as
// rand.New(rand.NewSource(seed)).
func NewClonableRand(seed int64) *ClonableRand {
	cs := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &ClonableRand{Rand: rand.New(cs), seed: seed, cnt: cs}
}

// Draws returns the number of source words consumed so far. Only the tests
// call it: it is how they check a clone sits where its parent does.
func (c *ClonableRand) Draws() uint64 { return c.cnt.n }

// Clone returns an independent stream positioned at exactly the same point:
// both the receiver and the clone will produce the identical remaining
// sequence. Clone does not mutate the receiver, so concurrent Clones of one
// stream (the Fork fan-out) are safe as long as nobody draws from it.
func (c *ClonableRand) Clone() *ClonableRand {
	n := c.cnt.n
	cs := &countingSource{src: rand.NewSource(c.seed).(rand.Source64)}
	for i := uint64(0); i < n; i++ {
		cs.src.Uint64()
	}
	cs.n = n
	return &ClonableRand{Rand: rand.New(cs), seed: c.seed, cnt: cs}
}
