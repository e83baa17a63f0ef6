// Package fft implements the paper's application kernel: a slab-decomposed
// three-dimensional Fast Fourier Transform whose transpose step runs over
// non-blocking all-to-all operations in the pipelined / tiled / windowed /
// window-tiled patterns of Hoefler et al. [14], with blocking-MPI, LibNBC
// (fixed linear algorithm) and ADCL (runtime-tuned) communication back ends.
// It is layer S6 of the substitution map (DESIGN.md §1).
//
// Invariant: the transform itself is exact — a real radix-2 FFT validated
// against the direct DFT — while benchmark runs set Config.Virtual, which
// keeps every schedule, message size and compute charge identical but skips
// touching payload data, so simulated timings scale to rank counts whose
// array allocations would not.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT1D performs an in-place radix-2 Cooley-Tukey FFT of x. len(x) must be a
// power of two. If inverse is true the inverse transform (including the 1/N
// normalization) is computed.
func FFT1D(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// FFTFlops returns the standard 5*n*log2(n) flop estimate of one length-n
// complex FFT.
func FFTFlops(n int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}

// fftStride runs an FFT over n elements of x spaced stride apart, using
// scratch (length >= n).
func fftStride(x []complex128, offset, n, stride int, inverse bool, scratch []complex128) error {
	if stride == 1 {
		return FFT1D(x[offset:offset+n], inverse)
	}
	s := scratch[:n]
	for i := 0; i < n; i++ {
		s[i] = x[offset+i*stride]
	}
	if err := FFT1D(s, inverse); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		x[offset+i*stride] = s[i]
	}
	return nil
}
