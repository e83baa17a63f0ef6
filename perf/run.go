package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nominalSeconds is BENCHMARK.json's run_seconds: the timed-region budget
// the per-workload pass counts below were calibrated for on the recording
// host (2-core Xeon @ 2.1 GHz, see NOISE.md) in one of its slow phases.
const nominalSeconds = 16

// plan is a prepared workload: run() warms it, measure() times passes×pass
// and calls check.
type plan struct {
	passes     int // timed repetitions of the unit of work
	opsPerPass int
	// unequal marks passes that are different pieces of one job (the blocks
	// of a sweep grid): their times are summed, where equal passes give a
	// median.
	unequal bool
	// warm runs the workload's warm-up unit (0.5-2 s of its own work at
	// default scale). It is re-run by traced runs to measure tracing
	// overhead on identical work.
	warm func(tr *tracer, parent int) error
	// pass runs one unit of work; spans hang under parent.
	pass func(i int, tr *tracer, parent int) error
	// check verifies the outputs collected by the passes, calling fail for
	// every op whose output is wrong.
	check func()
	// layer reports per-layer metrics only this workload's own passes can
	// supply (event counts); nil when it has none.
	layer func(r *result, wall float64)
	// close releases what prepare started (kb-mixed's server); may be nil.
	close func()

	failed int
	notes  []string
}

// fail marks ops as failed with a reason. Only the first few reasons are
// kept; the count is what the verdict uses.
func (p *plan) fail(ops int, format string, args ...any) {
	p.failed += ops
	if len(p.notes) < 8 {
		p.notes = append(p.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

// passesFor turns the -seconds budget into a fixed pass count for a
// workload whose pass takes passSeconds on the recording host. Counts, not
// clocks, bound the timed region, so the work done repeats exactly.
func passesFor(cfg config, passSeconds float64) int {
	if cfg.tiny() {
		return 2
	}
	return max(1, int(math.Round(float64(cfg.seconds)/passSeconds)))
}

// setupRepeats is how many times an untraced run sets the workload up.
// setup_s is the median of them, so one slow set-up does not pass for a
// slower program.
const setupRepeats = 3

// run executes one workload in this process and returns its metrics: the
// end-to-end set when untraced, the per-layer set when traced.
func run(cfg config) (*result, error) {
	ref := newRefKernel()
	ref.sample() // page the kernel's tables in
	repeats := setupRepeats
	if cfg.traceDir != "" {
		repeats = 1 // a traced run does not report setup_s
	}
	// One set-up is everything before the timed region can start: build the
	// specs or the daemon, load the reference files, run the warm-up unit.
	// Each is timed in reference seconds (ref.go) between two samples of the
	// reference kernel. The last one is kept; failures an earlier warm-up
	// found are carried over.
	var p *plan
	setups, raw := make([]float64, repeats), make([]float64, repeats)
	before := ref.sample()
	for i := range setups {
		start := time.Now()
		next, err := workloads[cfg.workload](cfg)
		if err != nil {
			return nil, err
		}
		if p != nil {
			next.failed, next.notes = p.failed, p.notes
			if p.close != nil {
				p.close()
			}
		}
		p = next
		if err := p.warm(nil, -1); err != nil {
			return nil, err
		}
		raw[i] = time.Since(start).Seconds()
		after := ref.sample()
		setups[i] = raw[i] * refNominal / ((before + after) / 2)
		before = after
	}
	p.notes = append(p.notes, fmt.Sprintf("set-up wall seconds: %.3f", raw))
	return measure(cfg, p, median(setups), ref)
}

// measure times a prepared and warmed workload, checks its outputs and, in
// a traced run, adds the profile shares and the layer probes.
func measure(cfg config, p *plan, setup float64, ref *refKernel) (*result, error) {
	if p.close != nil {
		defer p.close()
	}
	var err error

	var tr *tracer
	var traceOverhead float64
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
		tr = newTracer()
		if traceOverhead, err = measureTraceOverhead(p, cfg.traceDir); err != nil {
			return nil, err
		}
	}

	// The host-speed reference kernel (ref.go) runs before the first pass and,
	// untraced, after every pass. A traced run samples it only outside the
	// region, so the CPU profile holds the workload alone.
	passS := make([]float64, p.passes)
	refS := make([]float64, p.passes+1)
	refS[0] = ref.sample()

	var stopProfile func() (map[string]float64, error)
	if tr != nil {
		if stopProfile, err = startCPUProfile(filepath.Join(cfg.traceDir, "cpu.pprof")); err != nil {
			return nil, err
		}
	}
	var first, m0, m1 runtime.MemStats
	var allocBytes uint64
	runtime.ReadMemStats(&first)
	cpu0, steal0 := processCPUSeconds(), hostStealSeconds()
	root := tr.begin(-1, "run:"+cfg.workload, -1)
	for i := range passS {
		runtime.ReadMemStats(&m0)
		id := tr.begin(root, "pass", i)
		ts := time.Now()
		if err := p.pass(i, tr, id); err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", cfg.workload, i, err)
		}
		passS[i] = time.Since(ts).Seconds()
		tr.end(id)
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		// Every pass starts from a collected heap, traced or not.
		if tr == nil {
			refS[i+1] = ref.sample()
		} else {
			runtime.GC()
			refS[i+1] = refS[i]
		}
	}
	tr.end(root)
	cpuS, stealS := processCPUSeconds()-cpu0, hostStealSeconds()-steal0
	p.check()

	// A pass's reference seconds: its wall seconds, divided by how much
	// slower than nominal the reference kernel ran around it.
	var wall, normWall float64
	normS := make([]float64, len(passS))
	for i, t := range passS {
		normS[i] = t * refNominal / ((refS[i] + refS[i+1]) / 2)
		wall += t
		normWall += normS[i]
	}
	ops := p.passes * p.opsPerPass
	res := &result{attempted: ops, failed: min(p.failed, ops), notes: p.notes}
	opsPerS, normOpsPerS := float64(p.opsPerPass)/median(passS), float64(p.opsPerPass)/median(normS)
	if p.unequal {
		opsPerS, normOpsPerS = float64(ops)/wall, float64(ops)/normWall
	}
	res.notes = append(res.notes, fmt.Sprintf("pass seconds: %.3f", passS), fmt.Sprintf("reference kernel ms: %.1f (%.0f = nominal host speed)", scaled(refS, 1e3), refNominal*1e3))
	allocMB := float64(allocBytes) / (1 << 20)
	// Host disturbance, for reading outliers: CPU seconds this process was
	// charged and seconds the hypervisor ran someone else on our vCPUs.
	res.notes = append(res.notes, fmt.Sprintf("host: wall=%.3fs ops_per_s=%.4f (passes alone, uncorrected) process_cpu=%.3fs steal=%.3fs (whole region, all vCPUs)", wall, opsPerS, cpuS, stealS))
	if !cfg.tiny() && wall < 10 {
		// Pass counts are sized for 15 s in a slow host phase and 10-12 s in a
		// fast one; under that, the host is faster than the counts assume.
		res.notes = append(res.notes, fmt.Sprintf("hygiene: timed region %.1f s is under 10 s; raise -seconds", wall))
	}

	if tr == nil {
		res.add("setup_s", "s", setup, setupRepeats)
		res.add("norm_ops_per_s", "1/s", normOpsPerS, p.passes)
		res.add("alloc_mb", "MiB", allocMB, 0)
		res.add("peak_rss_mb", "MiB", peakRSSMiB(), 0)
		return res, nil
	}

	// Traced run: the same timed region with spans and a CPU profile on,
	// then the layer probes. Its end-to-end numbers are notes, not metrics.
	res.notes = append(res.notes, fmt.Sprintf("traced run: setup_s=%.3f wall_s=%.3f ops_per_s=%.4f alloc_mb=%.1f", setup, wall, opsPerS, allocMB))
	shares, err := stopProfile()
	if err != nil {
		return nil, err
	}
	for _, b := range cpuBuckets {
		res.add(b+"_frac", "ratio", shares[b], 0)
	}
	res.add("bench.wall_s", "s", wall, 0)
	res.add("bench.ops_per_s", "1/s", opsPerS, p.passes)
	res.add("bench.pass_s_p50", "s", median(passS), p.passes)
	res.add("bench.pass_cv", "ratio", cv(passS), p.passes)
	res.add("bench.trace_overhead_frac", "ratio", traceOverhead, 0)
	res.add("host.gc_cycles", "count", float64(m1.NumGC-first.NumGC), 0)
	res.add("host.gc_pause_ms", "ms", float64(m1.PauseTotalNs-first.PauseTotalNs)/1e6, 0)
	res.add("host.nproc", "count", float64(runtime.NumCPU()), 0)
	res.add("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)), 0)
	res.add("host.ref_ms", "ms", (refS[0]+ref.sample())/2*1e3, 2)
	if p.layer != nil {
		p.layer(res, wall)
	} else {
		res.add("sim.events_per_s", "1/s", 0, 0)
		res.add("sim.events_per_op", "count", 0, 0)
	}
	if err := tr.write(cfg.traceDir); err != nil {
		return nil, err
	}
	if err := runProbes(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// measureTraceOverhead runs the warm-up unit untraced, then with spans and
// a CPU profile on, back to back on warm caches, and returns traced ÷
// untraced − 1. The unit is half a second to two seconds long, so readings
// within several percent of zero are host noise.
func measureTraceOverhead(p *plan, dir string) (float64, error) {
	t0 := time.Now()
	if err := p.warm(nil, -1); err != nil {
		return 0, err
	}
	plain := time.Since(t0).Seconds()
	stop, err := startCPUProfile(filepath.Join(dir, "overhead.pprof"))
	if err != nil {
		return 0, err
	}
	tr := newTracer()
	root := tr.begin(-1, "warm", -1)
	t0 = time.Now()
	if err := p.warm(tr, root); err != nil {
		return 0, err
	}
	traced := time.Since(t0).Seconds()
	tr.end(root)
	if _, err := stop(); err != nil {
		return 0, err
	}
	return traced/plain - 1, nil
}

// startCPUProfile profiles until the returned function is called, which
// then buckets the flat samples by layer (see cpuBuckets).
func startCPUProfile(path string) (func() (map[string]float64, error), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		return bucketProfile(path)
	}, nil
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// processCPUSeconds is user+system CPU time charged to this process.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostStealSeconds is the steal column of /proc/stat's cpu line: time the
// hypervisor gave this VM's vCPUs to other guests (USER_HZ = 100).
func hostStealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return math.NaN()
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return math.NaN()
	}
	return v / 100
}

// quantile is Python's statistics.quantiles(xs, n=4) "exclusive" method
// generalized to any q in (0,1), so NOISE.md's quartiles are the ones the
// acceptance rule is stated in.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return s[0]
	}
	pos := q*float64(n+1) - 1
	lo := int(math.Floor(pos))
	lo = max(0, min(lo, n-2))
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func scaled(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// cv is the coefficient of variation (sample standard deviation ÷ mean).
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}
