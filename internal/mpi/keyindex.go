package mpi

import "math/bits"

// keyIndex is the deep-queue index of match.go: it maps a matchKey to the
// head and tail of that key's FIFO list. It is an open-addressed table,
// probed linearly from a multiplicative (Fibonacci) hash of the key, in one
// slice of 16-byte slots that holds no pointer, so the collector never scans
// it. A slot is occupied exactly when its head is non-zero (record index 0
// names no record), which leaves every key legal, the all-zero key of ctx 0,
// AnySource and AnyTag included. Deletion shifts the rest of the probe run
// back instead of leaving a tombstone, so a lookup stops at the first empty
// slot however many keys came and went. The table starts at the size the
// world's records name (newRecords: room for one key per rank, between
// minSlots and maxFirstSlots), doubles before a new key would fill more than
// 3/4 of it, and never shrinks: a queue that drains and fills again reuses it.
type keyIndex struct {
	slots []keySlot
	n     int  // occupied slots
	shift uint // 64 - log2(len(slots)): home keeps the product's top bits
}

// keySlot is one key's list: records linked through Request.mnext (posted
// receives) or envelope.bnext (unexpected envelopes).
type keySlot struct {
	key        matchKey
	head, tail int32
}

const (
	minSlots      = 32
	maxFirstSlots = 1024
)

// newKeyIndex returns an empty index of slots slots, a power of two of at
// least minSlots.
func newKeyIndex(slots int) *keyIndex {
	x := new(keyIndex)
	x.resize(slots)
	return x
}

// live reports whether the index holds any key: a queue is in index mode
// exactly when its index is live. A nil index is not.
func (x *keyIndex) live() bool { return x != nil && x.n > 0 }

// home is k's first probe: the top bits of k times 2^64/φ, after folding
// the key's upper half (context, source) onto its lower half (tag). Without
// the fold a source or context step reaches the top bits only through the
// multiplier's low 30 or 12 bits, and 48 sequential sources with one tag
// made a 48-probe lookup in a 64-slot table; with it, runs of sequential tags,
// sources or contexts spread over the table (TestKeyIndexAgainstMap bounds
// their probe runs).
func (x *keyIndex) home(k matchKey) int {
	h := uint64(k)
	return int((h ^ h>>32) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the slot holding k, or -1.
func (x *keyIndex) find(k matchKey) int {
	mask := len(x.slots) - 1
	for i := x.home(k); x.slots[i].head != 0; i = (i + 1) & mask {
		if x.slots[i].key == k {
			return i
		}
	}
	return -1
}

// claim returns k's slot, taking an empty one for it when k is absent. A
// taken slot has an empty list and counts as occupied from here on, so the
// caller must link a record in before the next call.
func (x *keyIndex) claim(k matchKey) *keySlot {
	for {
		mask := len(x.slots) - 1
		i := x.home(k)
		for ; x.slots[i].head != 0; i = (i + 1) & mask {
			if x.slots[i].key == k {
				return &x.slots[i]
			}
		}
		if 4*(x.n+1) <= 3*len(x.slots) {
			x.n++
			x.slots[i].key = k
			return &x.slots[i]
		}
		x.grow()
	}
}

// grow doubles the table and re-homes every occupied slot.
func (x *keyIndex) grow() { x.resize(2 * len(x.slots)) }

// resize makes a table of size slots and re-homes every occupied slot.
func (x *keyIndex) resize(size int) {
	old := x.slots
	x.slots = make([]keySlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.head == 0 {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].head != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

// del empties slot i and shifts back every later slot of its probe run that
// may move: one whose home is not cyclically in (hole, j] fills the hole and
// leaves its own slot as the next hole.
func (x *keyIndex) del(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].head != 0; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = keySlot{}
	x.n--
}
