package stats

// 2^k factorial design (Box, Hunter & Hunter), used by ADCL's third runtime
// selection logic: screen which attributes (and attribute interactions)
// actually matter before spending evaluations on the full cross product.

// Corner is one run of a 2^k design: Levels[i] is false for the low level of
// factor i and true for the high level.
type Corner struct {
	Levels []bool
	Score  float64 // measured response (lower is better for execution time)
}

// Corners enumerates all 2^k level combinations for k factors, in Yates
// order (factor 0 toggles fastest).
func Corners(k int) []Corner {
	n := 1 << k
	cs := make([]Corner, n)
	for i := 0; i < n; i++ {
		lv := make([]bool, k)
		for f := 0; f < k; f++ {
			lv[f] = i&(1<<f) != 0
		}
		cs[i] = Corner{Levels: lv}
	}
	return cs
}

// Effects holds the estimated main effects and two-factor interaction
// effects of a full 2^k design.
type Effects struct {
	Main  []float64   // Main[i]: mean(high_i) - mean(low_i)
	Inter [][]float64 // Inter[i][j], i<j: interaction contrast
}

// ComputeEffects estimates main and two-factor interaction effects from a
// complete set of 2^k corners (each corner's Score filled in).
func ComputeEffects(corners []Corner) Effects {
	if len(corners) == 0 {
		return Effects{}
	}
	k := len(corners[0].Levels)
	e := Effects{Main: make([]float64, k), Inter: make([][]float64, k)}
	for i := range e.Inter {
		e.Inter[i] = make([]float64, k)
	}
	half := float64(len(corners)) / 2
	for f := 0; f < k; f++ {
		s := 0.0
		for _, c := range corners {
			if c.Levels[f] {
				s += c.Score
			} else {
				s -= c.Score
			}
		}
		e.Main[f] = s / half
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			s := 0.0
			for _, c := range corners {
				if c.Levels[i] == c.Levels[j] {
					s += c.Score
				} else {
					s -= c.Score
				}
			}
			e.Inter[i][j] = s / half
		}
	}
	return e
}

// BetterLevel reports the preferred level of factor f when minimizing the
// response: true (high) if the main effect is negative.
func (e Effects) BetterLevel(f int) bool { return e.Main[f] < 0 }
