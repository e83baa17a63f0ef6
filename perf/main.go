// Command perf is the repository's benchmark: one workload per process,
// measured from outside the layers by timing calls into their public
// functions. BENCHMARK.json at the repository root is its manifest and
// README.md in this directory defines every workload and metric.
//
//	bash perf/run.sh --workload sweep-verify           # five end-to-end metrics
//	bash perf/run.sh --workload scale-4k --trace 1     # per-layer metrics + trace
//	bash perf/run.sh --aa 10                           # A/A noise table (NOISE.md)
//
// run.sh builds this module and runs it from the repository root, keeping
// the build cache inside the checkout; reference files are read from
// results/ and BENCH_scale.json relative to the working directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// processStart anchors setup_s: package variables initialize before main,
// so this is within a millisecond of exec.
var processStart = time.Now()

// benchProcs is the GOMAXPROCS every workload runs at. The simulator is
// sequential — its ranks are goroutines that hand the one running slot to
// each other — and at the default of 2 on the recording host those hand-offs
// cross threads: a sweep then takes 15-40 % longer, charges 1.25 cores, and
// its time follows the host's wake-up latency instead of the program. On one
// thread wall time equals CPU time and the kernel can move the run to
// whichever vCPU is free. kb-mixed's two clients and its daemon share that
// thread too: the workload measures the cost of a request, not how requests
// overlap, which two shared vCPUs cannot show steadily.
const benchProcs = 1

// config is one invocation's settings, after flag parsing.
type config struct {
	workload string
	seed     int64
	seconds  int
	scale    string // "default" or "tiny"
	traceDir string // "" = untraced
	clients  int
}

func (c config) tiny() bool { return c.scale == "tiny" }

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 0, "0 = the committed grid (outputs compared with the reference files); any other value offsets every spec/world/key-stream seed")
		seconds  = flag.Int("seconds", nominalSeconds, "timed-region budget: sets the fixed pass count of the multi-pass workloads (never a clock-driven loop)")
		scale    = flag.String("scale", "default", "default, or tiny (sub-second smoke used by perf_test.go)")
		trace    = flag.String("trace", "0", "0 = end-to-end metrics only; 1 = traced run writing to perf/out/<workload>; any other value = output directory")
		clients  = flag.Int("clients", min(2, runtime.NumCPU()), "closed-loop HTTP connections of kb-mixed (refused above nproc)")
		aa       = flag.Int("aa", 0, "A/A mode: run every workload N times in each of two alternating sets and print the noise table")
	)
	flag.Parse()
	if *aa > 0 {
		if err := runAA(*aa, *seconds, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, scale: *scale, clients: *clients}
	switch *trace {
	case "", "0":
	case "1":
		cfg.traceDir = filepath.Join("perf", "out", *workload)
	default:
		cfg.traceDir = *trace
	}
	if err := cfg.validate(); err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(benchProcs)
	printHeader(cfg)
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
}

func (c config) validate() error {
	if _, ok := workloads[c.workload]; !ok {
		return fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if c.scale != "default" && c.scale != "tiny" {
		return fmt.Errorf("unknown scale %q (default, tiny)", c.scale)
	}
	if c.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	// All load comes from this one process; more load generators than cores
	// would measure the host scheduler, not the daemon.
	if c.clients < 1 || c.clients > runtime.NumCPU() {
		return fmt.Errorf("-clients %d outside 1..nproc (%d)", c.clients, runtime.NumCPU())
	}
	return nil
}

// printHeader records the environment every number below was measured in.
func printHeader(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# perf workload=%s seed=%d seconds=%d scale=%s trace=%q\n", cfg.workload, cfg.seed, cfg.seconds, cfg.scale, cfg.traceDir)
	fmt.Printf("# commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d\n",
		commit, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// metric is one named measurement. n is the sample count behind a median or
// percentile (0 when the value is a single reading or an exact count).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// result is what one run reports: every metric by name with its unit, and
// the attempted/failed op counts behind the correctness verdict.
type result struct {
	attempted int
	failed    int
	notes     []string // human-readable check failures and hygiene warnings
	metrics   []metric
}

func (r *result) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

// print writes one line per metric and, last, the single JSON object the
// benchmark contract reads.
func (r *result) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d fail_frac=%g\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics {
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("  n=%d", m.n)
		}
		fmt.Fprintf(w, "metric %-40s %16.6f %s%s\n", m.name, m.value, m.unit, samples)
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(1)
}
