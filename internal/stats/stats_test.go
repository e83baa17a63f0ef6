package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if !almostEq(Mean(xs), 2) {
		t.Fatalf("mean = %g", Mean(xs))
	}
	if !almostEq(Percentile(xs, 50), 2) {
		t.Fatalf("median = %g", Percentile(xs, 50))
	}
	if !almostEq(Percentile([]float64{1, 2, 3, 4}, 50), 2.5) {
		t.Fatalf("even median = %g", Percentile([]float64{1, 2, 3, 4}, 50))
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty input should yield NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if !almostEq(Percentile(xs, 0), 10) || !almostEq(Percentile(xs, 100), 50) {
		t.Fatal("extreme percentiles wrong")
	}
	if !almostEq(Percentile(xs, 25), 20) {
		t.Fatalf("P25 = %g", Percentile(xs, 25))
	}
}

func TestFilterOutliersRemovesSpike(t *testing.T) {
	xs := []float64{1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 42.0}
	out := FilterOutliers(xs)
	for _, x := range out {
		if x > 10 {
			t.Fatalf("spike survived filtering: %v", out)
		}
	}
	if len(out) != len(xs)-1 {
		t.Fatalf("filtered %d values, want 1", len(xs)-len(out))
	}
}

func TestFilterOutliersKeepsCleanData(t *testing.T) {
	xs := []float64{1, 1.02, 0.98, 1.01, 0.99, 1.0}
	out := FilterOutliers(xs)
	if len(out) != len(xs) {
		t.Fatalf("clean data lost %d values", len(xs)-len(out))
	}
}

func TestRobustScoreBeatsSpikedMean(t *testing.T) {
	clean := []float64{1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}
	spiked := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 30.0}
	// Plain means would prefer clean; robust scoring recognizes that the
	// spiked implementation is actually faster.
	if Mean(spiked) < Mean(clean) {
		t.Fatal("test premise broken")
	}
	if RobustScore(spiked) >= RobustScore(clean) {
		t.Fatalf("robust score failed to discard spike: %g vs %g",
			RobustScore(spiked), RobustScore(clean))
	}
}

// Property: FilterOutliers output is a subset of the input and never empty
// for non-empty input.
func TestFilterSubsetProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, r := range raw {
			if !math.IsNaN(r) && !math.IsInf(r, 0) {
				xs = append(xs, math.Abs(r))
			}
		}
		if len(xs) == 0 {
			return true
		}
		out := FilterOutliers(xs)
		if len(out) == 0 || len(out) > len(xs) {
			return false
		}
		// Subset check via counting.
		cnt := map[float64]int{}
		for _, x := range xs {
			cnt[x]++
		}
		for _, x := range out {
			cnt[x]--
			if cnt[x] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		var xs []float64
		for _, r := range raw {
			if !math.IsNaN(r) && !math.IsInf(r, 0) {
				xs = append(xs, r)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
}

func TestCorners(t *testing.T) {
	cs := Corners(3)
	if len(cs) != 8 {
		t.Fatalf("got %d corners", len(cs))
	}
	seen := map[[3]bool]bool{}
	for _, c := range cs {
		seen[[3]bool{c.Levels[0], c.Levels[1], c.Levels[2]}] = true
	}
	if len(seen) != 8 {
		t.Fatal("corners not unique")
	}
}

func TestComputeEffectsAdditiveModel(t *testing.T) {
	// Response = 10 + 4*x0 - 2*x1 (x in {0,1}), no interaction.
	cs := Corners(2)
	for i := range cs {
		y := 10.0
		if cs[i].Levels[0] {
			y += 4
		}
		if cs[i].Levels[1] {
			y -= 2
		}
		cs[i].Score = y
	}
	e := ComputeEffects(cs)
	if !almostEq(e.Main[0], 4) || !almostEq(e.Main[1], -2) {
		t.Fatalf("main effects = %v", e.Main)
	}
	if !almostEq(e.Inter[0][1], 0) {
		t.Fatalf("interaction = %g, want 0", e.Inter[0][1])
	}
	if e.BetterLevel(0) != false || e.BetterLevel(1) != true {
		t.Fatal("BetterLevel wrong for minimization")
	}
}

func TestComputeEffectsInteraction(t *testing.T) {
	// Response = x0 XOR x1: pure interaction, no main effects.
	cs := Corners(2)
	for i := range cs {
		if cs[i].Levels[0] != cs[i].Levels[1] {
			cs[i].Score = 1
		}
	}
	e := ComputeEffects(cs)
	if !almostEq(e.Main[0], 0) || !almostEq(e.Main[1], 0) {
		t.Fatalf("main effects = %v, want zeros", e.Main)
	}
	if !almostEq(e.Inter[0][1], -1) {
		t.Fatalf("interaction = %g, want -1", e.Inter[0][1])
	}
}

// Property: corner count is always 2^k and levels enumerate without
// duplicates.
func TestCornersProperty(t *testing.T) {
	f := func(k8 uint8) bool {
		k := int(k8 % 6)
		cs := Corners(k)
		if len(cs) != 1<<k {
			return false
		}
		keys := map[string]bool{}
		for _, c := range cs {
			key := ""
			for _, l := range c.Levels {
				if l {
					key += "1"
				} else {
					key += "0"
				}
			}
			keys[key] = true
		}
		return len(keys) == 1<<k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max = %g/%g", Min(xs), Max(xs))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if Min(xs) != sorted[0] || Max(xs) != sorted[len(sorted)-1] {
		t.Fatal("min/max disagree with sort")
	}
}
