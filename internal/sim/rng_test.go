package sim

import (
	"math/rand"
	"runtime"
	"testing"
)

// streamSeeds are the seeds the stream is checked on: math/rand's seed
// reductions (0 and its stand-in 89482311, negative seeds, 2^31−1 ≡ 0,
// seeds past 2^31) and the seeds mpi gives its ranks, 7919·s + id.
var streamSeeds = []int64{0, -1, 89482311, 1<<31 - 1, 1<<31 + 2, 1 << 40, -5 << 33, 42,
	7919*0 + 3, 7919*1 + 0, 7919*7 + 15, 7919*1234 + 63}

// drawWith draws one value through a rand.Rand method, as a float64 so the
// methods compare alike.
var drawWith = map[string]func(r *rand.Rand) float64{
	"Uint64":      func(r *rand.Rand) float64 { return float64(r.Uint64()) },
	"Int63":       func(r *rand.Rand) float64 { return float64(r.Int63()) },
	"NormFloat64": func(r *rand.Rand) float64 { return r.NormFloat64() },
	"Float64":     func(r *rand.Rand) float64 { return r.Float64() },
	"Intn":        func(r *rand.Rand) float64 { return float64(r.Intn(1000)) },
}

// TestClonableRandStream checks the stream against math/rand over three
// state lengths — the words computed from the seed, the hand-over to the
// state array and past its first wrap — through every method the simulator
// and the tests draw with. Uint64 is compared bit for bit too, before and
// after a reseed.
func TestClonableRandStream(t *testing.T) {
	for _, seed := range streamSeeds {
		for name, draw := range drawWith {
			ref, cr := rand.New(rand.NewSource(seed)), NewClonableRand(seed)
			for i := 0; cr.Draws() < 3*rngLen; i++ {
				if a, b := draw(ref), draw(cr.Rand); a != b {
					t.Fatalf("seed %d, %s draw %d (word %d): %v, math/rand %v", seed, name, i, cr.Draws(), b, a)
				}
			}
		}
		ref, cr := rand.NewSource(seed).(rand.Source64), NewClonableRand(seed)
		for k := 1; k <= 3*rngLen; k++ {
			if a, b := ref.Uint64(), cr.Rand.Uint64(); a != b {
				t.Fatalf("seed %d, word %d: %#x, math/rand %#x", seed, k, b, a)
			}
		}
		// Seed starts the stream over, as math/rand's does.
		cr.Rand.Seed(seed)
		ref.Seed(seed)
		for k := 1; k <= 3*rngLen; k++ {
			if a, b := ref.Uint64(), cr.Rand.Uint64(); a != b {
				t.Fatalf("seed %d reseeded, word %d: %#x, math/rand %#x", seed, k, b, a)
			}
		}
	}
}

// TestClonableRandClone clones at the stream's boundaries — either side of
// the tap (273), of the feed's wrap (334), of the deepest computed tap
// (546), and of the hand-over to the state array (607) — and checks that
// the clone and its parent both go on with math/rand's words, independently.
func TestClonableRandClone(t *testing.T) {
	for _, seed := range streamSeeds {
		for _, at := range []int{0, 1, 273, 274, 334, 335, 546, 547, 606, 607, 608, 1500} {
			checkClone(t, seed, at, 2*rngLen)
		}
	}
}

// checkClone draws at words, clones, then draws n more from the clone and
// afterwards from the parent, each against math/rand.
func checkClone(t *testing.T, seed int64, at, n int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	cr := NewClonableRand(seed)
	for k := 0; k < at; k++ {
		if a, b := ref.Uint64(), cr.Rand.Uint64(); a != b {
			t.Fatalf("seed %d, word %d: %#x, math/rand %#x", seed, k+1, b, a)
		}
	}
	clone := cr.Clone()
	if clone.Draws() != uint64(at) || cr.Draws() != uint64(at) {
		t.Fatalf("seed %d: clone at %d draws, parent at %d, want %d", seed, clone.Draws(), cr.Draws(), at)
	}
	want := make([]uint64, n)
	for k := range want {
		want[k] = ref.Uint64()
	}
	for _, s := range []struct {
		name string
		c    *ClonableRand
	}{{"clone", clone}, {"parent", cr}} {
		for k, w := range want {
			if got := s.c.Rand.Uint64(); got != w {
				t.Fatalf("seed %d, cloned at %d: %s word %d: %#x, math/rand %#x", seed, at, s.name, at+k+1, got, w)
			}
		}
	}
}

// TestNoiseStreamAllocs: a noise stream costs its seed, its count and the
// rand.Rand wrapper, however many of its first rngLen words are drawn. 563
// is the most words any stream of the fast verification grid draws.
func TestNoiseStreamAllocs(t *testing.T) {
	const words, runs = 563, 100
	var sink float64
	stream := func() {
		c := NewClonableRand(7919*3 + 5)
		for c.Draws() < words {
			sink += c.Rand.NormFloat64()
		}
	}
	objects := testing.AllocsPerRun(runs, stream)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stream()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a %d-word stream: %.0f objects, %.0f B (sink %g)", words, objects, bytes, sink)
	if objects > 3 || bytes > 256 {
		t.Errorf("a %d-word stream allocates %.0f objects and %.0f B, budget 3 and 256 B", words, objects, bytes)
	}
}

// FuzzNoiseStream checks n words of a stream, and a clone taken at word at,
// against math/rand.
func FuzzNoiseStream(f *testing.F) {
	for _, seed := range streamSeeds {
		f.Add(seed, uint16(3*rngLen), uint16(0))
	}
	for _, at := range []uint16{1, 273, 274, 334, 335, 546, 547, 606, 607, 608, 1500} {
		f.Add(int64(7919*2+1), uint16(1600), at)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, at uint16) {
		if at > n {
			at = n
		}
		checkClone(t, seed, int(at), int(n-at))
	})
}
