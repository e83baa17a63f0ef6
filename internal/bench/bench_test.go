package bench

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"nbctune/internal/fft"
	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/platform"
)

func smallSpec(t *testing.T) MicroSpec {
	t.Helper()
	plat, err := platform.ByName("crill")
	if err != nil {
		t.Fatal(err)
	}
	// 5 evals per implementation: enough samples for the outlier filter to
	// absorb the simulated OS-noise spikes, so correctness assertions are
	// stable (with 2 evals, occasional mis-picks are expected — that is the
	// paper's own ~90% correct-decision rate).
	return MicroSpec{
		Platform: plat, Procs: 8, MsgSize: 64 * 1024, Op: OpIalltoall,
		ComputePerIter: 5e-3, Iterations: 24, ProgressCalls: 4, Seed: 3, EvalsPerFn: 5,
	}
}

func TestFunctionNames(t *testing.T) {
	spec := smallSpec(t)
	names := spec.FunctionNames()
	if len(names) != 3 {
		t.Fatalf("ialltoall function set has %d names", len(names))
	}
	spec.Op = OpIbcast
	if n := len(spec.FunctionNames()); n != 21 {
		t.Fatalf("ibcast function set has %d names, want 21", n)
	}
}

// TestHostShapeBuildsNoWorld: a host takes a spec's set from its
// declaration alone, so the 21-function Ibcast set of a 16-rank spec costs
// one binding's blocks and no simulated world, whose ranks alone would exceed
// the ceilings. These are 10 % above the measured figures, which -v logs.
func TestHostShapeBuildsNoWorld(t *testing.T) {
	const objectCeiling, byteCeiling = 26, 2376 // 24 objects and 2 160 B, +10 %
	spec := smallSpec(t)
	spec.Op, spec.Procs, spec.MsgSize = OpIbcast, 16, 2<<20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	objects := testing.AllocsPerRun(runs, func() {
		if fs, err := spec.HostFunctionSet(); err != nil || len(fs.Fns) != 21 {
			t.Fatalf("host shape %v, %v", fs, err)
		}
	})
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	if objects > objectCeiling || bytes > byteCeiling {
		t.Errorf("the host shape of %s allocates %v objects, %d bytes; ceilings %d, %d", spec, objects, bytes, objectCeiling, byteCeiling)
	} else {
		t.Logf("the host shape of %s allocates %v objects, %d bytes (ceilings %d, %d)", spec, objects, bytes, objectCeiling, byteCeiling)
	}
}

func TestRunFixedDeterministic(t *testing.T) {
	spec := smallSpec(t)
	r1, err := RunFixed(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFixed(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total != r2.Total {
		t.Fatalf("same seed gave %g and %g", r1.Total, r2.Total)
	}
	if r1.Total <= 0 || r1.PerIter <= 0 {
		t.Fatal("non-positive run time")
	}
}

// fixedRunPayload is the payload of TestFixedRunCompilesOneSchedule's spec,
// moved on each run of the test so that no earlier run in the process (go
// test -count N) has compiled its schedules.
var fixedRunPayload = 2 << 20

// TestFixedRunCompilesOneSchedule: the first fixed run of a function pays for
// that function's schedule on every rank and for no other of the set, and a
// second fixed run of the same spec compiles none, as the set's declaration
// keeps what the first compiled. No hook counts compiles; the bytes do: the
// first run of the function whose schedules cost most allocates over its
// second run what compiling them allocates, and the second allocates over a
// barrier's run less than half of that. A run of the set's cheapest function
// first leaves the record chunks of such a world in the pools (World.Release),
// so that the first run carves none the second does not.
func TestFixedRunCompilesOneSchedule(t *testing.T) {
	spec := smallSpec(t)
	fixedRunPayload += 8
	spec.Op, spec.Procs, spec.MsgSize, spec.Iterations = OpIbcast, 16, fixedRunPayload, 3
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	fixed := func(spec MicroSpec, fn int) int64 {
		return allocated(func() {
			if _, err := RunFixed(spec, fn); err != nil {
				t.Fatal(err)
			}
		})
	}
	var set int64
	dear, dearBytes := 0, int64(0)               // the function whose schedules cost most
	cheap, cheapBytes := 0, int64(math.MaxInt64) // and least
	fn := 0
	for _, f := range nbc.DefaultFanouts {
		for _, seg := range nbc.DefaultSegSizes {
			b := allocated(func() {
				for me := 0; me < spec.Procs; me++ {
					nbc.Ibcast(spec.Procs, me, 0, mpi.Virtual(spec.MsgSize), f, seg)
				}
			})
			if set += b; b > dearBytes {
				dear, dearBytes = fn, b
			}
			if b < cheapBytes {
				cheap, cheapBytes = fn, b
			}
			fn++
		}
	}
	fixed(spec, cheap)
	// The world's own cost: a fixed run of a barrier, whose one schedule is
	// the smallest, once it and whatever else a world of the spec shares are
	// compiled.
	barrier := spec
	barrier.Op = OpIbarrier
	fixed(barrier, 0)
	world := fixed(barrier, 0)
	first, second := fixed(spec, dear), fixed(spec, dear)
	if got := first - second; dearBytes < set/20 || got < dearBytes*9/10 || got > dearBytes*11/10 {
		t.Errorf("two fixed runs of function %d allocate %d and %d bytes, %d apart; compiling its schedules allocates %d (the set %d)",
			dear, first, second, got, dearBytes, set)
	}
	if second-world > dearBytes/2 {
		t.Errorf("a second fixed run of function %d allocates %d bytes over a barrier's %d where compiling its schedules takes %d", dear, second-world, world, dearBytes)
	}
	t.Logf("function %d: first run %d B, second %d B, a barrier's %d B; its schedules %d B, the set's %d B", dear, first, second, world, dearBytes, set)
}

func TestRunFixedOutOfRange(t *testing.T) {
	if _, err := RunFixed(smallSpec(t), 99); err == nil {
		t.Fatal("out-of-range implementation accepted")
	}
}

// allFixed measures every implementation of the spec's function set.
func allFixed(spec MicroSpec) ([]MicroResult, error) {
	m, err := FixedMatrix([]MicroSpec{spec}, 0, RunOptions{}, nil)
	if err != nil {
		return nil, err
	}
	return m[0], nil
}

func TestSpecValidation(t *testing.T) {
	spec := smallSpec(t)
	spec.Procs = 1
	if _, err := RunFixed(spec, 0); err == nil {
		t.Error("1-proc spec accepted")
	}
	spec = smallSpec(t)
	spec.Op = "igather"
	if _, _, err := spec.run("x", nil); err == nil {
		t.Error("unknown op accepted")
	}
	spec = smallSpec(t)
	spec.ProgressCalls = 0
	if _, _, err := spec.run("x", nil); err == nil {
		t.Error("zero progress calls accepted")
	}
	for _, compute := range []float64{-1, math.NaN(), math.Inf(1)} {
		spec = smallSpec(t)
		spec.ComputePerIter = compute
		if _, _, err := spec.run("x", nil); err == nil {
			t.Errorf("compute time %g accepted", compute)
		}
	}
	spec = smallSpec(t)
	spec.MsgSize = -1024
	if _, _, err := spec.run("x", nil); err == nil {
		t.Error("negative message size accepted")
	}
	// 16 ranks x 2^60 bytes per pair wraps an int to 0.
	spec = smallSpec(t)
	spec.Procs, spec.MsgSize = 16, 1<<60
	if _, _, err := spec.run("x", nil); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("overflowing buffer size: error %v", err)
	}
	// A broadcast has one tag per segment: a payload of more segments than a
	// schedule has tags is refused before any world runs, and a size near
	// MaxInt must not wrap to a one-segment broadcast.
	const most = mpi.NBTagStride * 32 << 10 // the largest in the smallest segments
	for _, op := range []string{OpIbcast, OpIbcastScalable} {
		for _, size := range []int{most + 1, math.MaxInt} {
			spec = smallSpec(t)
			spec.Op, spec.MsgSize = op, size
			if _, _, err := spec.run("x", nil); err == nil || !strings.Contains(err.Error(), "segments") {
				t.Errorf("%s of %d bytes: error %v", op, size, err)
			}
		}
		spec.MsgSize = nbc.MaxPayload // the largest a schedule addresses, under most
		if err := spec.validate(); err != nil {
			t.Errorf("%s of %d bytes refused: %v", op, spec.MsgSize, err)
		}
		// A payload of 2 GiB fits the tags but not a schedule entry's int32
		// byte counts.
		spec.MsgSize = 2 << 30
		if err := spec.validate(); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%s of 2 GiB: error %v", op, err)
		}
	}
	// A set that cannot be built for the spec is an error from the entry
	// points that list its functions first, not a panic.
	spec = smallSpec(t)
	spec.Op = "neighborhood" // needs a square rank count; Procs is 8
	if _, err := RunVerificationOpts(spec, RunOptions{}, "brute-force"); err == nil || !strings.Contains(err.Error(), "square") {
		t.Errorf("unbuildable set: verification error %v", err)
	}
	if _, err := FixedMatrix([]MicroSpec{spec}, 0, RunOptions{}, nil); err == nil || !strings.Contains(err.Error(), "square") {
		t.Errorf("unbuildable set: fixed-matrix error %v", err)
	}
}

func TestRunADCLDecides(t *testing.T) {
	spec := smallSpec(t)
	r, err := RunADCL(spec, "brute-force")
	if err != nil {
		t.Fatal(err)
	}
	if r.Winner == "" {
		t.Fatal("ADCL run did not decide")
	}
	if r.Evals != 15 { // 3 impls x 5 evals
		t.Fatalf("evals = %d, want 15", r.Evals)
	}
	if r.DecidedIter != 15 {
		t.Fatalf("decided at iteration %d, want 15", r.DecidedIter)
	}
	if r.PostLearnPerIter <= 0 {
		t.Fatal("no post-learning timing recorded")
	}
}

func TestRunADCLUnknownSelector(t *testing.T) {
	if _, err := RunADCL(smallSpec(t), "magic"); err == nil {
		t.Fatal("unknown selector accepted")
	}
}

func TestVerificationCorrectness(t *testing.T) {
	v, err := RunVerificationOpts(smallSpec(t), RunOptions{}, "brute-force")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Fixed) != 3 || len(v.ADCL) != 1 {
		t.Fatalf("verification shape: %d fixed, %d adcl", len(v.Fixed), len(v.ADCL))
	}
	for i := range v.Fixed {
		if v.Fixed[i].Total < v.Fixed[v.Best].Total {
			t.Fatal("Best is not the minimum")
		}
	}
	// The noise-free-ish small scenario should tune correctly.
	if !v.Correct(0) {
		t.Fatalf("brute force incorrect: picked %s, best %s", v.ADCL[0].Winner, v.Fixed[v.Best].Impl)
	}
}

func TestVerificationScenariosIterationsSufficient(t *testing.T) {
	// Regression test: every scenario must run long enough for the slowest
	// selector (brute force) to finish its learning phase.
	for _, fast := range []bool{true, false} {
		for _, s := range VerificationScenarios(fast) {
			impls := 3
			if s.Op == OpIbcast {
				impls = 21
			}
			if s.Iterations <= s.EvalsPerFn*impls {
				t.Fatalf("scenario %s: %d iterations cannot cover %d learning evals",
					s, s.Iterations, s.EvalsPerFn*impls)
			}
		}
	}
}

func TestScenarioCounts(t *testing.T) {
	if n := len(VerificationScenarios(true)); n == 0 {
		t.Fatal("no fast verification scenarios")
	}
	full := len(VerificationScenarios(false))
	fast := len(VerificationScenarios(true))
	if full <= fast {
		t.Fatalf("full grid (%d) not larger than fast grid (%d)", full, fast)
	}
	if n := len(FFTScenarios(true)); n == 0 {
		t.Fatal("no fast FFT scenarios")
	}
	if len(FFTScenarios(false)) <= len(FFTScenarios(true)) {
		t.Fatal("full FFT grid not larger than fast grid")
	}
}

// TestTimedLoopFailures pins the timed loop's two failure modes. An error a
// rank records (a data-mode mismatch) leaves every rank iterating, so the
// collectives of the others still find it, and the run returns it. An error
// a step returns (an FFT Forward error) ends the loop, and the run returns
// it rather than panicking.
func TestTimedLoopFailures(t *testing.T) {
	spec := smallSpec(t)
	const iters, failAt = 5, 2
	mismatch := errors.New("mismatch")
	for _, returned := range []bool{false, true} {
		w, err := spec.World()
		if err != nil {
			t.Fatal(err)
		}
		steps := make([]int, spec.Procs)
		_, _, err = timedLoop(w, spec.Procs, iters, false, func(c *mpi.Comm, record func(error)) (func() error, func() (string, int), error) {
			me := c.Rank()
			step := func() error {
				c.Barrier()
				if steps[me]++; steps[me] == failAt {
					if returned {
						return mismatch
					}
					if me == 1 {
						record(mismatch)
					}
				}
				return nil
			}
			return step, func() (string, int) { return "", 0 }, nil
		})
		if !errors.Is(err, mismatch) {
			t.Errorf("returned=%v: run error %v, want the step's", returned, err)
		}
		want := iters
		if returned {
			want = failAt
		}
		for me, n := range steps {
			if n != want {
				t.Errorf("returned=%v: rank %d ran %d steps, want %d", returned, me, n, want)
			}
		}
	}
}

func TestFFTRunSmoke(t *testing.T) {
	plat, err := platform.ByName("whale")
	if err != nil {
		t.Fatal(err)
	}
	spec := FFTSpec{
		Platform: plat, Procs: 8, N: 32, Pattern: fft.WindowTiled,
		Iterations: 10, Seed: 5, EvalsPerFn: 2,
	}
	m, err := fftMatrix([]FFTSpec{spec}, []fft.Flavor{fft.FlavorNBC, fft.FlavorADCL, fft.FlavorMPI}, RunOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := m[0]
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	for _, r := range rs {
		if r.Total <= 0 {
			t.Fatalf("%s: no time elapsed", r.Label)
		}
	}
	if rs[1].Winner == "" {
		t.Fatal("ADCL FFT run did not decide")
	}
}

func TestFFTSweepSmallGrid(t *testing.T) {
	plat, err := platform.ByName("crill")
	if err != nil {
		t.Fatal(err)
	}
	specs := []FFTSpec{{
		Platform: plat, Procs: 8, N: 32, Pattern: fft.Tiled,
		Iterations: 10, Seed: 7, EvalsPerFn: 1,
	}}
	st, err := FFTSweepOpts(specs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 1 || len(st.Rows) != 1 {
		t.Fatalf("sweep stats: %+v", st)
	}
}

func TestVerificationSweepSmall(t *testing.T) {
	spec := smallSpec(t)
	st, err := VerificationSweepOpts([]MicroSpec{spec}, []string{"brute-force"}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 1 {
		t.Fatalf("total = %d", st.Total)
	}
	if st.Rate("brute-force") != 1.0 {
		t.Fatalf("rate = %g", st.Rate("brute-force"))
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "a", "bb")
	tab.AddRow("x", 1.5)
	tab.AddRow("longer", "v")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "## demo") || !strings.Contains(out, "longer") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestMsSecFormat(t *testing.T) {
	if Ms(0.0015) != "1.500" {
		t.Fatalf("Ms = %s", Ms(0.0015))
	}
	if Sec(1.23456) != "1.2346" {
		t.Fatalf("Sec = %s", Sec(1.23456))
	}
}

func TestImbalanceStretchesLoop(t *testing.T) {
	spec := smallSpec(t)
	even, err := RunFixed(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.Imbalance = 0.5 // slowest rank computes 50% longer
	skewed, err := RunFixed(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The loop is paced by the slowest rank; with 50% imbalance the total
	// must grow by roughly the imbalance of the compute share.
	if skewed.Total < even.Total*1.2 {
		t.Fatalf("imbalance had no effect: %g vs %g", skewed.Total, even.Total)
	}
}

func TestImbalanceChangesRanking(t *testing.T) {
	// Under imbalance the collective absorbs skew differently per
	// algorithm; the harness must still tune consistently.
	spec := smallSpec(t)
	spec.Imbalance = 0.3
	r, err := RunADCL(spec, "brute-force")
	if err != nil {
		t.Fatal(err)
	}
	if r.Winner == "" {
		t.Fatal("no decision under imbalance")
	}
}
