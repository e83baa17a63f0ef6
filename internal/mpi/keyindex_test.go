package mpi

import (
	"math/rand"
	"testing"
)

// TestKeyIndexAgainstMap drives keyIndex and a Go map in lockstep over
// random claim/find/del sequences and checks, after every operation, that
// they hold the same keys with the same lists and that every occupied slot
// is reachable from its home without crossing an empty one. Three key sets
// steer it where an open-addressed table breaks:
//
//   - "shared home": every key homes to one slot of the 32-slot table, so
//     each deletion must shift the whole run back;
//   - "wrapping run": the keys home to the last slots, so their run and the
//     deletions in it wrap past the table's end;
//   - "growth in a cluster": a wider key set whose runs are still occupied
//     when the table doubles, twice.
//
// Each case checks that it really reached what it is named for. Last, it
// bounds the longest probe run for the key shapes nbc makes: sequential tags
// from one source, sequential sources with one tag, and two contexts.
func TestKeyIndexAgainstMap(t *testing.T) {
	small := newKeyIndex(minSlots)
	homed := func(want func(h int) bool, n int) []matchKey {
		var ks []matchKey
		for tag := 0; len(ks) < n; tag++ {
			if k := keyOf(1, 3, tag); want(small.home(k)) {
				ks = append(ks, k)
			}
		}
		return ks
	}
	var wide []matchKey
	for i := 0; i < 300; i++ {
		wide = append(wide, keyOf(1+i%2, i%5, i/10))
	}
	cases := []struct {
		name  string
		keys  []matchKey
		live  int // the most keys live at once
		check func(x *keyIndex, st *indexStats) bool
	}{
		{"shared home", homed(func(h int) bool { return h == 5 }, 40), minSlots * 3 / 4,
			func(x *keyIndex, st *indexStats) bool { return st.maxRun >= 16 && len(x.slots) == minSlots }},
		{"wrapping run", homed(func(h int) bool { return h >= minSlots-3 }, 40), minSlots * 3 / 4,
			func(x *keyIndex, st *indexStats) bool { return st.wrappedDels > 0 && len(x.slots) == minSlots }},
		{"growth in a cluster", wide, len(wide),
			func(x *keyIndex, st *indexStats) bool { return st.grewInRun >= 2 }},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := newKeyIndex(minSlots)
			ref := map[matchKey]keySlot{}
			var st indexStats
			for op := 0; op < 3000; op++ {
				k := tc.keys[rng.Intn(len(tc.keys))]
				switch r := rng.Intn(10); {
				case r < 5 && len(ref) < tc.live: // claim and link a record
					size := len(x.slots)
					st.noteRun(x)
					s := x.claim(k)
					if len(x.slots) > size && st.runBefore > 1 {
						st.grewInRun++
					}
					if s.key != k {
						t.Fatalf("%s seed %d: claim(%#x) returned the slot of %#x", tc.name, seed, k, s.key)
					}
					l := ref[k]
					if l.head == 0 {
						l.head = int32(op + 1)
					}
					l.key, l.tail = k, int32(op+1)
					s.head, s.tail = l.head, l.tail
					ref[k] = l
				case r < 8: // find
					got := x.find(k)
					if _, ok := ref[k]; (got >= 0) != ok {
						t.Fatalf("%s seed %d: find(%#x) = %d, map holds it: %v", tc.name, seed, k, got, ok)
					}
				default: // delete
					if _, ok := ref[k]; !ok {
						continue
					}
					i := x.find(k)
					if i < 0 {
						t.Fatalf("%s seed %d: find(%#x) lost a live key", tc.name, seed, k)
					}
					if end := (i + runFrom(x, i)) & (len(x.slots) - 1); end < i {
						st.wrappedDels++
					}
					x.del(i)
					delete(ref, k)
				}
				st.check(t, tc.name, seed, x, ref)
			}
			if !tc.check(x, &st) {
				t.Errorf("%s seed %d: never reached its case (%+v, %d slots)", tc.name, seed, st, len(x.slots))
			}
		}
	}

	const bound = 8
	shapes := []struct {
		name string
		key  func(i int) matchKey
	}{
		{"sequential tags", func(i int) matchKey { return keyOf(1, 0, i) }},
		{"sequential sources", func(i int) matchKey { return keyOf(1, i, nbTagBase+nbTagStride) }},
		{"two contexts", func(i int) matchKey { return keyOf(1+i%2, i/2, 7) }},
	}
	for _, sh := range shapes {
		x := newKeyIndex(minSlots)
		for i := 0; i < 4096; i++ {
			x.claim(sh.key(i)).head = 1
			if probes := longestProbe(x); probes > bound {
				t.Errorf("%s: %d keys in %d slots take a %d-probe lookup, over %d", sh.name, i+1, len(x.slots), probes, bound)
				break
			}
		}
	}
}

// indexStats records what a TestKeyIndexAgainstMap case reached.
type indexStats struct {
	maxRun      int // the longest occupied run seen
	runBefore   int // the longest run just before the last claim
	grewInRun   int // doublings taken while a run of 2+ slots was occupied
	wrappedDels int // deletions whose probe run wrapped past the table's end
}

// noteRun records the longest occupied run of x before a claim.
func (st *indexStats) noteRun(x *keyIndex) {
	st.runBefore = 0
	for i := range x.slots {
		st.runBefore = max(st.runBefore, runFrom(x, i))
	}
	st.maxRun = max(st.maxRun, st.runBefore)
}

// runFrom is the number of occupied slots from i on, up to the first empty.
func runFrom(x *keyIndex, i int) int {
	n, mask := 0, len(x.slots)-1
	for x.slots[(i+n)&mask].head != 0 && n < len(x.slots) {
		n++
	}
	return n
}

// check holds x to ref: the same count, every ref key found in its slot
// with its list, and every occupied slot reachable from its home.
func (st *indexStats) check(t *testing.T, name string, seed int64, x *keyIndex, ref map[matchKey]keySlot) {
	t.Helper()
	if x.n != len(ref) {
		t.Fatalf("%s seed %d: index counts %d keys, map holds %d", name, seed, x.n, len(ref))
	}
	for k, want := range ref {
		if i := x.find(k); i < 0 || x.slots[i] != want {
			t.Fatalf("%s seed %d: key %#x not found as %+v (slot %d)", name, seed, k, want, i)
		}
	}
	mask := len(x.slots) - 1
	for i, s := range x.slots {
		if s.head == 0 {
			continue
		}
		if _, ok := ref[s.key]; !ok {
			t.Fatalf("%s seed %d: slot %d holds %#x, which the map does not", name, seed, i, s.key)
		}
		for j := x.home(s.key); j != i; j = (j + 1) & mask {
			if x.slots[j].head == 0 {
				t.Fatalf("%s seed %d: slot %d (%#x) lies past the empty slot %d of its run", name, seed, i, s.key, j)
			}
		}
	}
}

// longestProbe is the most slots a successful find of x inspects.
func longestProbe(x *keyIndex) int {
	worst, mask := 0, len(x.slots)-1
	for i, s := range x.slots {
		if s.head != 0 {
			worst = max(worst, (i-x.home(s.key))&mask+1)
		}
	}
	return worst
}

// TestFirstIndexFromTheWorld pins the size of a queue's first index table:
// room for one key per rank of the world under the 3/4 load, between minSlots
// and maxFirstSlots. A rank of a 384-rank linear all-to-all posts one receive
// per peer, and its first 512-slot table holds all 383 keys without growing.
func TestFirstIndexFromTheWorld(t *testing.T) {
	for _, c := range []struct{ ranks, slots int }{
		{0, minSlots}, {24, minSlots}, {25, 64}, {384, 512}, {385, maxFirstSlots}, {16384, maxFirstSlots},
	} {
		if got := newRecords(1, c.ranks).slots; got != c.slots {
			t.Errorf("a %d-rank world's first index has %d slots, want %d", c.ranks, got, c.slots)
		}
	}
	s := newShard(newRecords(1, 384), 0, nil, nil, Options{})
	var m matcher
	for src := 0; src < 383; src++ {
		q := s.allocReq()
		q.peer, q.tag, q.ctx = int32(src), 0, 1
		m.post(s.recs, q)
	}
	if got := len(m.posted.slots); got != 512 {
		t.Errorf("383 posted keys in a 384-rank world: a %d-slot index, want the first table of 512", got)
	}
}
