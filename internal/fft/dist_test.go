package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

func fftWorld(t testing.TB, n int) (*sim.Engine, *mpi.World) {
	t.Helper()
	eng := sim.NewEngine(1)
	p := netmodel.Params{
		Name: "fft-test", Latency: 2e-6, Bandwidth: 1.5e9, NICs: 1, MsgGap: 1e-6,
		OSend: 1e-6, ORecv: 1e-6, OPost: 2e-7, OProgress: 5e-7, OTest: 5e-8,
		EagerLimit: 12 * 1024, RDMA: true, CtrlBytes: 64,
		CopyBandwidth: 4e9, ShmLatency: 4e-7, ShmBandwidth: 5e9,
		IncastK: 8, IncastBeta: 0.02, IncastCap: 2,
	}
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	net, err := netmodel.New(eng, p, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld([]*netmodel.Network{net}, nil, n, mpi.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

// naive3D computes the full 3D DFT of data[x][y][z] (index (x*N+y)*N+z).
func naive3D(data []complex128, N int) []complex128 {
	out := make([]complex128, len(data))
	for kx := 0; kx < N; kx++ {
		for ky := 0; ky < N; ky++ {
			for kz := 0; kz < N; kz++ {
				var s complex128
				for x := 0; x < N; x++ {
					for y := 0; y < N; y++ {
						for z := 0; z < N; z++ {
							ang := -2 * math.Pi * (float64(kx*x)/float64(N) +
								float64(ky*y)/float64(N) + float64(kz*z)/float64(N))
							s += data[(x*N+y)*N+z] * cmplx.Exp(complex(0, ang))
						}
					}
				}
				out[(kx*N+ky)*N+kz] = s
			}
		}
	}
	return out
}

// runForward3D runs one forward FFT of the given full grid across P ranks
// and returns the gathered spectrum indexed (kx*N+ky)*N+kz.
func runForward3D(t *testing.T, full []complex128, N, P int, cfg Config) []complex128 {
	t.Helper()
	eng, w := fftWorld(t, P)
	L := N / P
	spectrum := make([]complex128, N*N*N)
	var planErr error
	w.Start(func(c *mpi.Comm) {
		cfg := cfg
		cfg.N = N
		pl, err := NewPlan(c, cfg)
		if err != nil {
			planErr = err
			return
		}
		// Scatter: my slab = planes [me*L, (me+1)*L).
		copy(pl.Slab(), full[c.Rank()*L*N*N:(c.Rank()+1)*L*N*N])
		if err := pl.Forward(); err != nil {
			planErr = err
			return
		}
		// Gather: trans[(ly*N+gx)*N+z] holds spectrum[gx][me*L+ly][z].
		for ly := 0; ly < L; ly++ {
			ky := c.Rank()*L + ly
			for kx := 0; kx < N; kx++ {
				copy(spectrum[(kx*N+ky)*N:(kx*N+ky)*N+N], pl.trans[(ly*N+kx)*N:(ly*N+kx)*N+N])
			}
		}
	})
	eng.Run()
	if planErr != nil {
		t.Fatal(planErr)
	}
	return spectrum
}

func randomGrid(N int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	full := make([]complex128, N*N*N)
	for i := range full {
		full[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return full
}

func TestDistributed3DFFTMatchesNaive(t *testing.T) {
	const N, P = 8, 2
	full := randomGrid(N, 7)
	want := naive3D(full, N)
	for _, flavor := range []Flavor{FlavorMPI, FlavorNBC, FlavorADCL} {
		got := runForward3D(t, full, N, P, Config{Pattern: WindowTiled, Flavor: flavor, FlopRate: 1e9})
		for i := range want {
			if !approxEq(got[i], want[i], 1e-8) {
				t.Fatalf("flavor %v: spectrum[%d] = %v, want %v", flavor, i, got[i], want[i])
			}
		}
	}
}

func TestAllPatternsAgree(t *testing.T) {
	const N, P = 16, 4
	full := randomGrid(N, 9)
	var ref []complex128
	for _, pat := range Patterns {
		got := runForward3D(t, full, N, P, Config{Pattern: pat, Flavor: FlavorNBC, FlopRate: 1e9})
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if !approxEq(got[i], ref[i], 1e-8) {
				t.Fatalf("pattern %v deviates at %d", pat, i)
			}
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	const N, P = 16, 4
	full := randomGrid(N, 13)
	eng, w := fftWorld(t, P)
	L := N / P
	maxErr := 0.0
	var planErr error
	w.Start(func(c *mpi.Comm) {
		pl, err := NewPlan(c, Config{N: N, Pattern: Tiled, Flavor: FlavorMPI, FlopRate: 1e9})
		if err != nil {
			planErr = err
			return
		}
		orig := append([]complex128(nil), full[c.Rank()*L*N*N:(c.Rank()+1)*L*N*N]...)
		copy(pl.Slab(), orig)
		if err := pl.Forward(); err != nil {
			planErr = err
			return
		}
		if err := pl.Inverse(); err != nil {
			planErr = err
			return
		}
		for i := range orig {
			if e := cmplx.Abs(pl.Slab()[i] - orig[i]); e > maxErr {
				maxErr = e
			}
		}
	})
	eng.Run()
	if planErr != nil {
		t.Fatal(planErr)
	}
	if maxErr > 1e-9 {
		t.Fatalf("round-trip error %g", maxErr)
	}
}

func TestADCLFlavorConvergesAcrossIterations(t *testing.T) {
	const N, P = 16, 4
	eng, w := fftWorld(t, P)
	winners := make([]string, P)
	var planErr error
	w.Start(func(c *mpi.Comm) {
		pl, err := NewPlan(c, Config{
			N: N, Pattern: WindowTiled, Flavor: FlavorADCL,
			Virtual: true, FlopRate: 1e9, EvalsPerFn: 2,
		})
		if err != nil {
			planErr = err
			return
		}
		for it := 0; it < 12; it++ {
			if err := pl.Forward(); err != nil {
				planErr = err
				return
			}
		}
		done, name := pl.Decided()
		if !done {
			planErr = fmt.Errorf("rank %d: ADCL undecided after 12 iterations", c.Rank())
			return
		}
		winners[c.Rank()] = name
	})
	eng.Run()
	if planErr != nil {
		t.Fatal(planErr)
	}
	for r := 1; r < P; r++ {
		if winners[r] != winners[0] {
			t.Fatalf("ranks diverged: %v", winners)
		}
	}
}

func TestADCLExtIncludesBlocking(t *testing.T) {
	const N, P = 16, 4
	eng, w := fftWorld(t, P)
	var planErr error
	var evals int
	w.Start(func(c *mpi.Comm) {
		pl, err := NewPlan(c, Config{
			N: N, Pattern: Pipelined, Flavor: FlavorADCLExt,
			Virtual: true, FlopRate: 1e9, EvalsPerFn: 1,
		})
		if err != nil {
			planErr = err
			return
		}
		for it := 0; it < 8; it++ {
			if err := pl.Forward(); err != nil {
				planErr = err
				return
			}
		}
		if c.Rank() == 0 {
			evals = pl.Evals()
		}
	})
	eng.Run()
	if planErr != nil {
		t.Fatal(planErr)
	}
	if evals != 4 { // 4 implementations (3 non-blocking + blocking) x 1 eval
		t.Fatalf("extended set evals = %d, want 4", evals)
	}
}

func TestPlanValidation(t *testing.T) {
	eng, w := fftWorld(t, 3)
	errs := make([]error, 3)
	w.Start(func(c *mpi.Comm) {
		_, err := NewPlan(c, Config{N: 16, Pattern: Pipelined, Flavor: FlavorMPI})
		errs[c.Rank()] = err
	})
	eng.Run()
	for _, err := range errs {
		if err == nil {
			t.Fatal("P=3 must not divide N=16")
		}
	}

	eng2, w2 := fftWorld(t, 2)
	errs2 := make([]error, 2)
	w2.Start(func(c *mpi.Comm) {
		_, err := NewPlan(c, Config{N: 6, Pattern: Pipelined, Flavor: FlavorMPI})
		errs2[c.Rank()] = err
	})
	eng2.Run()
	for _, err := range errs2 {
		if err == nil {
			t.Fatal("non-power-of-two N accepted")
		}
	}
}

func TestVirtualModeChargesTime(t *testing.T) {
	const N, P = 32, 4
	eng, w := fftWorld(t, P)
	var elapsed float64
	var planErr error
	w.Start(func(c *mpi.Comm) {
		pl, err := NewPlan(c, Config{N: N, Pattern: Windowed, Flavor: FlavorNBC, Virtual: true, FlopRate: 1e9})
		if err != nil {
			planErr = err
			return
		}
		t0 := c.Now()
		if err := pl.Forward(); err != nil {
			planErr = err
			return
		}
		if c.Rank() == 0 {
			elapsed = c.Now() - t0
		}
	})
	eng.Run()
	if planErr != nil {
		t.Fatal(planErr)
	}
	// Lower bound: the modeled compute alone.
	minCompute := (2 + 1) * float64(N/P) * float64(N) * FFTFlops(N) / 1e9
	if elapsed < minCompute {
		t.Fatalf("virtual iteration took %g, below compute floor %g", elapsed, minCompute)
	}
}
