// Package stats provides the robust statistics ADCL's selection logic uses
// to compare implementations in the presence of OS noise, plus 2^k factorial
// design helpers for the attribute-based search-space pruning. It is layer
// S9 of the substitution map (DESIGN.md §1).
//
// Invariant: every function here is pure and deterministic — same input
// slice, same answer — and none mutates its input; selection decisions and
// audit replays (obs.Audit) depend on this to be reproducible by hand.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN when xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation, or NaN when xs is empty.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Min returns the minimum of xs, or NaN when empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN when empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FilterOutliers removes points outside the Tukey fences
// [Q1 - k*IQR, Q3 + k*IQR] with k = 1.5. ADCL applies this to per-function
// measurement vectors before comparing implementations, so a single OS-noise
// spike does not disqualify the best implementation. If filtering would
// remove everything (degenerate distributions), the input is returned.
func FilterOutliers(xs []float64) []float64 {
	if len(xs) < 4 {
		return append([]float64(nil), xs...)
	}
	q1 := Percentile(xs, 25)
	q3 := Percentile(xs, 75)
	iqr := q3 - q1
	lo, hi := q1-1.5*iqr, q3+1.5*iqr
	var out []float64
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return append([]float64(nil), xs...)
	}
	return out
}

// RobustScore reduces a measurement vector to the score ADCL ranks
// implementations by: the mean of the outlier-filtered samples.
func RobustScore(xs []float64) float64 {
	return Mean(FilterOutliers(xs))
}
