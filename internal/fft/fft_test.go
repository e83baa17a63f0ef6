package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestFFT1DMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := DFT1D(x, false)
		got := append([]complex128(nil), x...)
		if err := FFT1D(got, false); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !approxEq(got[i], want[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d: FFT[%d]=%v, DFT=%v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFT1DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 64)
	orig := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = x[i]
	}
	if err := FFT1D(x, false); err != nil {
		t.Fatal(err)
	}
	if err := FFT1D(x, true); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !approxEq(x[i], orig[i], 1e-10) {
			t.Fatalf("round trip failed at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestFFT1DRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, 3, 6, 100} {
		if err := FFT1D(make([]complex128, n), false); err == nil {
			t.Errorf("n=%d accepted", n)
		}
	}
}

func TestFFT1DLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		FFT1D(a, false)
		FFT1D(b, false)
		FFT1D(sum, false)
		for i := 0; i < n; i++ {
			if !approxEq(sum[i], a[i]+b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(59))}); err != nil {
		t.Fatal(err)
	}
}

func TestFFT1DParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		FFT1D(x, false)
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(freqE/float64(n)-timeE) < 1e-8*timeE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTStride(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, stride := 16, 4
	x := make([]complex128, n*stride)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// Reference: extract, FFT, compare.
	ref := make([]complex128, n)
	for i := 0; i < n; i++ {
		ref[i] = x[1+i*stride]
	}
	FFT1D(ref, false)
	scratch := make([]complex128, n)
	if err := fftStride(x, 1, n, stride, false, scratch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !approxEq(x[1+i*stride], ref[i], 1e-10) {
			t.Fatalf("strided FFT wrong at %d", i)
		}
	}
}

func TestFFTFlops(t *testing.T) {
	if FFTFlops(1) != 0 || FFTFlops(0) != 0 {
		t.Fatal("degenerate flops not 0")
	}
	if FFTFlops(1024) != 5*1024*10 {
		t.Fatalf("flops(1024) = %g", FFTFlops(1024))
	}
}

func TestPatternParams(t *testing.T) {
	cases := []struct {
		p            Pattern
		planes       int
		tile, window int
	}{
		{Pipelined, 8, 1, 2},
		{Tiled, 8, 4, 2},
		{Windowed, 8, 1, 3},
		{WindowTiled, 8, 4, 3},
		{Tiled, 2, 2, 2}, // degenerate: one tile
	}
	for _, tc := range cases {
		tile, window, err := tc.p.params(tc.planes)
		if err != nil || tile != tc.tile || window != tc.window {
			t.Errorf("%v planes=%d: got (%d,%d) %v, want (%d,%d)",
				tc.p, tc.planes, tile, window, err, tc.tile, tc.window)
		}
	}
}

func TestComplexRowRoundTrip(t *testing.T) {
	src := []complex128{complex(1.5, -2.5), complex(0, 3), complex(-7, 0.25)}
	buf := make([]byte, len(src)*16)
	putComplexRow(buf, src)
	dst := make([]complex128, len(src))
	getComplexRow(dst, buf)
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("row round trip at %d: %v vs %v", i, src[i], dst[i])
		}
	}
}

// DFT1D is the O(n^2) reference transform FFT1D is validated against.
func DFT1D(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}
