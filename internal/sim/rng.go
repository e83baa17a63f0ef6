package sim

import "math/rand"

// ClonableRand is a deterministic random stream that can be duplicated
// mid-stream. It draws exactly the words of rand.New(rand.NewSource(seed)),
// but keeps no 607-word (about 5 KB) math/rand state: a stream is its seed
// and a count of the words drawn, and each of its first rngLen words is
// computed from the seed when it is drawn (word, below). Only a stream that
// goes past rngLen words builds math/rand's state array, and from there on
// steps it exactly as math/rand does. The fast verification and FFT grids
// draw at most 563 words a stream, so none of their streams builds it.
//
// Clone copies that state, so both copies produce the identical remaining
// sequence while staying fully independent — the property
// World.Snapshot/Fork needs to hand every fork the same noise stream the
// parent would have seen.
type ClonableRand struct {
	// Rand is the stream itself; draw from it directly.
	Rand *rand.Rand

	src seededSource
}

// math/rand's additive lagged Fibonacci generator: x[k] = x[k-607] +
// x[k-273], seeded from the Lehmer generator x[n+1] = 48271·x[n] mod
// (2^31−1) xored with a fixed table.
const (
	rngLen  = 607
	rngTap  = 273
	rngMod  = 1<<31 - 1
	rngMask = 1<<63 - 1
)

var (
	// rngPow[n] is 48271^n mod 2^31−1: the seeding generator's n-th value
	// is rngPow[n]·x0 for the reduced seed x0. Seeded word i takes values
	// 21+3i to 23+3i.
	rngPow [21 + 3*rngLen]uint32
	// rngCooked is math/rand's unexported seeding table, recovered by
	// inverting the first rngLen words of rand.NewSource(1).
	rngCooked [rngLen]uint64
)

func init() {
	rngPow[0] = 1
	for n := 1; n < len(rngPow); n++ {
		rngPow[n] = uint32(mulMod(uint64(rngPow[n-1]), 48271))
	}
	// Draw k sets state word feedAt(k) to itself plus its tap: the word drawn
	// k−rngTap earlier if k > rngTap, else seeded word rngLen−k, which draws
	// rngTap+1..rngLen have already recovered.
	ref := rand.NewSource(1).(rand.Source64)
	var drawn [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		drawn[k] = ref.Uint64()
	}
	var vec [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[feedAt(k)] = drawn[k] - drawn[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[feedAt(k)] = drawn[k] - vec[rngLen-k]
	}
	for i, v := range vec {
		rngCooked[i] = v ^ lehmer(1, i)
	}
}

// mulMod returns a·b mod 2^31−1 for a, b < 2^31−1, neither a multiple of
// it: the product's high bits fold onto its low bits because 2^31 ≡ 1.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&rngMod + p>>31
	if r >= rngMod {
		r -= rngMod
	}
	return r
}

// lehmer returns the seeding generator's three values behind state word i,
// packed as math/rand packs them.
func lehmer(x0 uint64, i int) uint64 {
	n := 21 + 3*i
	return mulMod(uint64(rngPow[n]), x0)<<40 ^ mulMod(uint64(rngPow[n+1]), x0)<<20 ^ mulMod(uint64(rngPow[n+2]), x0)
}

// seeded returns state word i as math/rand seeds it from x0.
func seeded(x0 uint64, i int) uint64 { return lehmer(x0, i) ^ rngCooked[i] }

// feedAt returns the state word draw k (1 ≤ k ≤ rngLen) overwrites.
func feedAt(k int) int {
	if k <= rngLen-rngTap {
		return rngLen - rngTap - k
	}
	return 2*rngLen - rngTap - k
}

// seededSource is math/rand's source computed from its seed on demand.
type seededSource struct {
	x0 uint64 // the seed reduced as math/rand reduces it, in [1, 2^31−1)
	n  uint64 // words drawn

	// math/rand's state, built once the stream passes rngLen words.
	vec       *[rngLen]uint64
	tap, feed int
}

func newSeededSource(seed int64) seededSource {
	seed %= rngMod
	if seed < 0 {
		seed += rngMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return seededSource{x0: uint64(seed)}
}

// word returns draw k (1 ≤ k ≤ rngLen) of the stream seeded with x0. No
// state word is overwritten twice in the first rngLen draws, so draw k is
// its feed's seeded word plus its tap: the seeded word rngLen−k, or for
// k > rngTap draw k−rngTap. That recursion goes at most 3 levels deep.
func word(x0 uint64, k int) uint64 {
	var v uint64
	for ; k > rngTap; k -= rngTap {
		v += seeded(x0, feedAt(k))
	}
	return v + seeded(x0, feedAt(k)) + seeded(x0, rngLen-k)
}

func (s *seededSource) Uint64() uint64 {
	if s.n < rngLen {
		s.n++
		return word(s.x0, int(s.n))
	}
	if s.vec == nil {
		s.vec, s.tap, s.feed = new([rngLen]uint64), 0, rngLen-rngTap
		for i := range s.vec {
			s.vec[i] = seeded(s.x0, i)
		}
		for i := 0; i < rngLen; i++ {
			s.step()
		}
	}
	s.n++
	return s.step()
}

// step is math/rand's rngSource.Uint64.
func (s *seededSource) step() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

func (s *seededSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *seededSource) Seed(seed int64) { *s = newSeededSource(seed) }

// NewClonableRand returns a stream producing the same sequence as
// rand.New(rand.NewSource(seed)).
func NewClonableRand(seed int64) *ClonableRand {
	c := &ClonableRand{src: newSeededSource(seed)}
	c.Rand = rand.New(&c.src)
	return c
}

// Draws returns the number of source words consumed so far. Only the tests
// call it: it is how they check a clone sits where its parent does.
func (c *ClonableRand) Draws() uint64 { return c.src.n }

// Clone returns an independent stream positioned at exactly the same point:
// both the receiver and the clone will produce the identical remaining
// sequence. Clone does not mutate the receiver, so concurrent Clones of one
// stream (the Fork fan-out) are safe as long as nobody draws from it.
func (c *ClonableRand) Clone() *ClonableRand {
	d := &ClonableRand{src: c.src}
	if c.src.vec != nil {
		vec := *c.src.vec
		d.src.vec = &vec
	}
	d.Rand = rand.New(&d.src)
	return d
}
