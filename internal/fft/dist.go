package fft

import (
	"fmt"

	"nbctune/internal/core"
	"nbctune/internal/mpi"
)

// Flavor selects the communication back end of the transpose step. Every
// flavor runs ADCL's Ialltoall function set over each slot's buffers — the
// extended set, which adds the blocking MPI_Alltoall (paper §IV-B-f), for
// mpi and adcl-ext — the fixed flavors pinned to one of its functions by a
// FixedSelector, the ADCL flavors tuned under SelectorName.
type Flavor int

// SelectorName is the selection logic every ADCL flavor tunes under.
const SelectorName = "brute-force"

const (
	// FlavorMPI uses the blocking MPI_Alltoall (no overlap).
	FlavorMPI Flavor = iota
	// FlavorNBC uses LibNBC's default: the linear Ialltoall algorithm.
	FlavorNBC
	// FlavorADCL runtime-tunes over the non-blocking Ialltoall function set.
	FlavorADCL
	// FlavorADCLExt tunes over the extended function set that also contains
	// the blocking MPI_Alltoall (paper §IV-B-f).
	FlavorADCLExt
)

// flavors holds each flavor's name, whether it binds the extended set, and
// the function a fixed flavor pins ("" for the tuned ones).
var flavors = [...]struct {
	name     string
	extended bool
	pin      string
}{
	FlavorMPI:     {"mpi", true, "alltoall-blocking"},
	FlavorNBC:     {"libnbc", false, "ialltoall-linear"},
	FlavorADCL:    {"adcl", false, ""},
	FlavorADCLExt: {"adcl-ext", true, ""},
}

func (f Flavor) known() bool { return f >= 0 && int(f) < len(flavors) }

func (f Flavor) String() string {
	if !f.known() {
		return fmt.Sprintf("flavor(%d)", int(f))
	}
	return flavors[f].name
}

// Pattern is the computation/communication interleaving of the transpose
// (Hoefler et al. [14], paper Fig 8).
type Pattern int

const (
	Pipelined Pattern = iota
	Tiled
	Windowed
	WindowTiled
)

func (p Pattern) String() string {
	switch p {
	case Pipelined:
		return "pipelined"
	case Tiled:
		return "tiled"
	case Windowed:
		return "windowed"
	case WindowTiled:
		return "window-tiled"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Patterns lists all four transpose patterns.
var Patterns = []Pattern{Pipelined, Tiled, Windowed, WindowTiled}

// params returns (tile size, window size) for `planes` local planes. The
// paper's defaults are tile=10 and window=3; at simulation scale the tile
// size is planes/2 (at least 2), preserving tile>1 vs tile=1 and window 2
// vs 3 distinctions.
func (p Pattern) params(planes int) (tile, window int, err error) {
	bigTile := planes / 2
	if bigTile < 2 {
		bigTile = planes // degenerate: single tile
	}
	switch p {
	case Pipelined:
		return 1, 2, nil
	case Tiled:
		return bigTile, 2, nil
	case Windowed:
		return 1, 3, nil
	case WindowTiled:
		return bigTile, 3, nil
	}
	return 0, 0, fmt.Errorf("fft: unknown pattern %d", int(p))
}

// Config describes one distributed 3D-FFT setup.
type Config struct {
	N               int // grid points per dimension (power of two)
	Pattern         Pattern
	Flavor          Flavor
	EvalsPerFn      int     // ADCL flavors: measurements per implementation
	ProgressPerTile int     // progress calls inserted per tile compute phase
	Virtual         bool    // timing-only: no payload math or data movement
	FlopRate        float64 // per-rank compute rate (platform.FlopRate)
}

func (c Config) withDefaults() Config {
	if c.EvalsPerFn == 0 {
		c.EvalsPerFn = 3
	}
	if c.ProgressPerTile == 0 {
		c.ProgressPerTile = 2
	}
	if c.FlopRate == 0 {
		c.FlopRate = 2e9
	}
	return c
}

// selector is the selection logic the slots' requests share: the pinned
// function for a fixed flavor, SelectorName for a tuned one.
func (c Config) selector(fs *core.FunctionSet) (core.Selector, error) {
	if pin := flavors[c.Flavor].pin; pin != "" {
		return &core.FixedSelector{Fn: fs.IndexOf(pin)}, nil
	}
	return core.SelectorByName(SelectorName, fs, c.EvalsPerFn)
}

// slot is one window entry: buffers plus the persistent transpose operation
// bound to them.
type slot struct {
	send, recv   []byte
	sendB, recvB mpi.Buf
	req          *core.Request
	busy         bool // started, unpack still pending
	tile         int
}

// Plan is the per-rank state of the distributed 3D FFT.
type Plan struct {
	c   *mpi.Comm
	cfg Config

	P, me  int
	L      int // local planes (N/P)
	tp, T  int // tile size in planes, tile count
	W      int // window size
	blockB int // bytes exchanged per rank pair per tile

	slab    []complex128 // [L][N][N], x-slabs (input layout)
	trans   []complex128 // [L][N][N], y-slabs (transposed layout)
	scratch []complex128

	slots []*slot
	reqs  []*core.Request // the slots' requests, sharing one selector
	timer *core.Timer     // brackets a whole iteration for them
}

// NewPlan builds the per-rank FFT plan. The communicator size must divide N,
// the tile size must divide the local plane count, the pattern must be one
// of Patterns and the flavor one of the four Flavor constants; zero counts
// take their defaults, negative ones are refused.
func NewPlan(c *mpi.Comm, cfg Config) (*Plan, error) {
	if cfg.EvalsPerFn < 0 || cfg.ProgressPerTile < 0 {
		return nil, fmt.Errorf("fft: EvalsPerFn=%d and ProgressPerTile=%d must not be negative", cfg.EvalsPerFn, cfg.ProgressPerTile)
	}
	if !cfg.Flavor.known() {
		return nil, fmt.Errorf("fft: unknown flavor %d", int(cfg.Flavor))
	}
	cfg = cfg.withDefaults()
	P := c.Size()
	N := cfg.N
	if N <= 0 || N&(N-1) != 0 {
		return nil, fmt.Errorf("fft: N=%d must be a power of two", N)
	}
	if N%P != 0 {
		return nil, fmt.Errorf("fft: communicator size %d must divide N=%d", P, N)
	}
	L := N / P
	tp, W, err := cfg.Pattern.params(L)
	if err != nil {
		return nil, err
	}
	if L%tp != 0 {
		return nil, fmt.Errorf("fft: tile size %d must divide local planes %d", tp, L)
	}
	T := L / tp
	if W > T {
		W = T
	}
	pl := &Plan{
		c: c, cfg: cfg, P: P, me: c.Rank(), L: L, tp: tp, T: T, W: W,
		blockB: tp * L * N * 16,
	}
	if !cfg.Virtual {
		pl.slab = make([]complex128, L*N*N)
		pl.trans = make([]complex128, L*N*N)
		pl.scratch = make([]complex128, N)
	}

	// Window slots with persistent buffers and a persistent request bound to
	// them; the slots share one selector, so they switch in lockstep.
	var shared core.Selector
	for s := 0; s < pl.W; s++ {
		sl := &slot{
			sendB: mpi.Virtual(P * pl.blockB),
			recvB: mpi.Virtual(P * pl.blockB),
		}
		if !cfg.Virtual {
			sl.send = make([]byte, P*pl.blockB)
			sl.recv = make([]byte, P*pl.blockB)
			sl.sendB = mpi.Bytes(sl.send)
			sl.recvB = mpi.Bytes(sl.recv)
		}
		fs := core.IalltoallSet(c, sl.sendB, sl.recvB, flavors[cfg.Flavor].extended)
		if shared == nil {
			if shared, err = cfg.selector(fs); err != nil {
				return nil, err
			}
		}
		if sl.req, err = core.NewRequest(fs, shared, c.Now); err != nil {
			return nil, err
		}
		pl.reqs = append(pl.reqs, sl.req)
		pl.slots = append(pl.slots, sl)
	}
	if pl.timer, err = core.NewTimer(c.Now, pl.reqs...); err != nil {
		return nil, err
	}
	return pl, nil
}

// Slab returns the rank's input/output x-slab array ([L][N][N], index
// (lx*N+y)*N+z). Nil in virtual mode.
func (p *Plan) Slab() []complex128 { return p.slab }

// Decided reports whether the selection has converged — for the fixed
// flavors, from the first transpose on — and the winner's name, which for a
// fixed flavor is the flavor's own.
func (p *Plan) Decided() (bool, string) {
	switch w := p.reqs[0].Winner(); {
	case w == nil:
		return false, ""
	case flavors[p.cfg.Flavor].pin != "":
		return true, p.cfg.Flavor.String()
	default:
		return true, w.Name
	}
}

// Evals returns the ADCL learning cost so far (0 for fixed flavors).
func (p *Plan) Evals() int { return p.reqs[0].Selector().Evals() }

// tileComputeTime is the modeled cost of the 2D FFTs of one tile: per plane,
// N row FFTs (z) and N column FFTs (y).
func (p *Plan) tileComputeTime() float64 {
	return float64(p.tp) * 2 * float64(p.cfg.N) * FFTFlops(p.cfg.N) / p.cfg.FlopRate
}

// phase3ComputeTime models the final FFT along x over all local y-planes.
func (p *Plan) phase3ComputeTime() float64 {
	return float64(p.L) * float64(p.cfg.N) * FFTFlops(p.cfg.N) / p.cfg.FlopRate
}

// compute2DTile performs (and charges) the 2D FFTs of tile t, interleaving
// progress calls on outstanding window slots.
func (p *Plan) compute2DTile(t int, inverse bool) error {
	N := p.cfg.N
	if !p.cfg.Virtual {
		for i := 0; i < p.tp; i++ {
			lx := t*p.tp + i
			base := lx * N * N
			for y := 0; y < N; y++ {
				if err := fftStride(p.slab, base+y*N, N, 1, inverse, p.scratch); err != nil {
					return err
				}
			}
			for z := 0; z < N; z++ {
				if err := fftStride(p.slab, base+z, N, N, inverse, p.scratch); err != nil {
					return err
				}
			}
		}
	}
	p.chunkedCompute(p.tileComputeTime())
	return nil
}

// chunkedCompute charges d seconds of compute split into ProgressPerTile
// chunks, progressing outstanding slots between chunks.
func (p *Plan) chunkedCompute(d float64) {
	k := p.cfg.ProgressPerTile
	for i := 0; i < k; i++ {
		p.c.Compute(d / float64(k))
		p.progressBusy()
	}
}

func (p *Plan) progressBusy() {
	for _, sl := range p.slots {
		if sl.busy {
			sl.req.Progress()
		}
	}
}

// pack stages tile t of the slab into the slot's send buffer, grouped by
// destination rank.
func (p *Plan) pack(t int, sl *slot) {
	N, L, tp := p.cfg.N, p.L, p.tp
	if !p.cfg.Virtual {
		for j := 0; j < p.P; j++ {
			dst := j * p.blockB
			for i := 0; i < tp; i++ {
				lx := t*tp + i
				for ry := 0; ry < L; ry++ {
					y := j*L + ry
					src := (lx*N + y) * N
					off := dst + ((i*L + ry) * N * 16)
					putComplexRow(sl.send[off:off+N*16], p.slab[src:src+N])
				}
			}
		}
	}
	p.c.RankState().ChargeCopy(p.P * p.blockB)
}

// unpack scatters the received tile t blocks into the transposed array.
func (p *Plan) unpack(t int, sl *slot) {
	N, L, tp := p.cfg.N, p.L, p.tp
	if !p.cfg.Virtual {
		for j := 0; j < p.P; j++ {
			src := j * p.blockB
			for i := 0; i < tp; i++ {
				gx := j*L + t*tp + i
				for ry := 0; ry < L; ry++ {
					off := src + ((i*L + ry) * N * 16)
					dst := (ry*N + gx) * N
					getComplexRow(p.trans[dst:dst+N], sl.recv[off:off+N*16])
				}
			}
		}
	}
	p.c.RankState().ChargeCopy(p.P * p.blockB)
}

// startTranspose initiates the all-to-all for tile t on the given slot.
func (p *Plan) startTranspose(t int, sl *slot) {
	sl.tile = t
	sl.req.Init()
	sl.busy = true
}

// finishTranspose completes the slot's operation and unpacks it.
func (p *Plan) finishTranspose(sl *slot) {
	sl.req.Wait()
	p.unpack(sl.tile, sl)
	sl.busy = false
}

// Forward runs one forward 3D FFT iteration: 2D FFTs + windowed/tiled
// transpose + final FFT along x. The iteration is bracketed by the plan's
// timer, so a runtime selection tunes the entire region.
func (p *Plan) Forward() error {
	p.timer.Start()
	for t := 0; t < p.T; t++ {
		sl := p.slots[t%p.W]
		if sl.busy {
			p.finishTranspose(sl)
		}
		if err := p.compute2DTile(t, false); err != nil {
			return err
		}
		p.pack(t, sl)
		p.startTranspose(t, sl)
	}
	for off := 0; off < p.W; off++ {
		sl := p.slots[(p.T+off)%p.W]
		if sl.busy {
			p.finishTranspose(sl)
		}
	}
	if err := p.fftAlongX(false); err != nil {
		return err
	}
	core.StopMaybeSynced(p.c, p.timer, p.reqs...)
	return nil
}

func (p *Plan) fftAlongX(inverse bool) error {
	N := p.cfg.N
	if !p.cfg.Virtual {
		for ly := 0; ly < p.L; ly++ {
			base := ly * N * N
			for z := 0; z < N; z++ {
				if err := fftStride(p.trans, base+z, N, N, inverse, p.scratch); err != nil {
					return err
				}
			}
		}
	}
	p.c.Compute(p.phase3ComputeTime())
	return nil
}

// Inverse undoes Forward: inverse FFT along x, transpose back (blocking),
// and inverse 2D FFTs. It exists for round-trip validation and uses the
// blocking all-to-all regardless of flavor.
func (p *Plan) Inverse() error {
	if p.cfg.Virtual {
		return fmt.Errorf("fft: Inverse requires real data")
	}
	if err := p.fftAlongX(true); err != nil {
		return err
	}
	N, L := p.cfg.N, p.L
	// Transpose back in one blocking exchange: block to peer j = my y-rows
	// of j's planes, i.e. the exact mirror of the forward unpack.
	blockB := L * L * N * 16
	send := make([]byte, p.P*blockB)
	recv := make([]byte, p.P*blockB)
	for j := 0; j < p.P; j++ {
		off := j * blockB
		for i := 0; i < L; i++ { // j's plane index
			gx := j*L + i
			for ry := 0; ry < L; ry++ {
				src := (ry*N + gx) * N
				o := off + ((i*L+ry)*N)*16
				putComplexRow(send[o:o+N*16], p.trans[src:src+N])
			}
		}
	}
	p.c.RankState().ChargeCopy(p.P * blockB)
	p.c.Alltoall(mpi.Bytes(send), mpi.Bytes(recv))
	for j := 0; j < p.P; j++ {
		off := j * blockB
		for i := 0; i < L; i++ { // my plane index
			lx := i
			for ry := 0; ry < L; ry++ {
				y := j*L + ry
				o := off + ((i*L+ry)*N)*16
				dst := (lx*N + y) * N
				getComplexRow(p.slab[dst:dst+N], recv[o:o+N*16])
			}
		}
	}
	p.c.RankState().ChargeCopy(p.P * blockB)
	// Inverse 2D FFTs per plane.
	for lx := 0; lx < L; lx++ {
		base := lx * N * N
		for y := 0; y < N; y++ {
			if err := fftStride(p.slab, base+y*N, N, 1, true, p.scratch); err != nil {
				return err
			}
		}
		for z := 0; z < N; z++ {
			if err := fftStride(p.slab, base+z, N, N, true, p.scratch); err != nil {
				return err
			}
		}
	}
	p.c.Compute(2 * p.phase3ComputeTime())
	return nil
}

func putComplexRow(dst []byte, src []complex128) {
	for i, v := range src {
		mpi.PutFloat64(dst[16*i:], real(v))
		mpi.PutFloat64(dst[16*i+8:], imag(v))
	}
}

func getComplexRow(dst []complex128, src []byte) {
	for i := range dst {
		dst[i] = complex(mpi.GetFloat64(src[16*i:]), mpi.GetFloat64(src[16*i+8:]))
	}
}
