package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"nbctune/internal/bench"
)

// Workloads read their reference files relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func tinyConfig(workload, traceDir string) config {
	return config{workload: workload, seconds: nominalSeconds, scale: "tiny", traceDir: traceDir, clients: min(2, runtime.NumCPU())}
}

// checkMetrics asserts that res holds exactly the manifest's metrics, each
// once, with the manifest's unit and a finite value.
func checkMetrics(t *testing.T, res *result, want []manifestMetric) {
	t.Helper()
	seen, units := map[string]int{}, map[string]string{}
	for _, m := range res.metrics {
		seen[m.name]++
		units[m.name] = m.unit
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("metric %s = %v", m.name, m.value)
		}
	}
	for _, m := range want {
		if seen[m.Name] != 1 {
			t.Errorf("metric %s printed %d times, want once", m.Name, seen[m.Name])
		} else if units[m.Name] != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, units[m.Name], m.Unit)
		}
		delete(seen, m.Name)
	}
	for name := range seen {
		t.Errorf("metric %s is printed but not listed in BENCHMARK.json", name)
	}
}

func TestEveryWorkloadTiny(t *testing.T) {
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	for _, wl := range m.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the harness", wl.Name)
			continue
		}
		res, err := run(tinyConfig(wl.Name, ""))
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: %d of %d ops failed: %v", wl.Name, res.failed, res.attempted, res.notes)
		}
		checkMetrics(t, res, m.EndToEnd)
	}
}

// A reference row that differs from what the sweep produces must fail the
// scenario it belongs to and nothing else.
func TestCorruptedReferenceFails(t *testing.T) {
	cfg := tinyConfig("sweep-verify", "")
	ref, err := loadSummaryRows(refSweep)
	if err != nil {
		t.Fatal(err)
	}
	ref[1].BestTotal *= 1.0000001
	res, err := measure(cfg, sweepVerifyPlan(cfg, bench.VerificationScenarios(true)[:2], ref), 0, newRefKernel())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || res.attempted != 4 {
		t.Errorf("corrupted row 1: %d of %d ops failed, want 1 of 4: %v", res.failed, res.attempted, res.notes)
	}
}

// The traced run of the workload with concurrent spans: every per-layer
// metric once, a loadable trace whose spans nest, self times that sum to no
// more than the root per concurrent client, profile shares that sum to one,
// a monotone ladder.
func TestTracedRun(t *testing.T) {
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := tinyConfig("kb-mixed", dir)
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("%d ops failed: %v", res.failed, res.notes)
	}
	checkMetrics(t, res, m.PerLayer)
	value := map[string]float64{}
	for _, mt := range res.metrics {
		value[mt.name] = mt.value
	}

	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	readJSON(t, filepath.Join(dir, "trace.json"), &trace)
	var spans []span
	readJSON(t, filepath.Join(dir, "spans.json"), &spans)
	if len(trace.TraceEvents) != len(spans) || len(spans) < 10 {
		t.Fatalf("trace.json has %d events, spans.json %d spans", len(trace.TraceEvents), len(spans))
	}
	var root span
	requests := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			root = s
			continue
		}
		if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) [%.1f, %.1f] is outside its parent %d (%s) [%.1f, %.1f]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if strings.HasPrefix(s.Name, "request:") {
			requests++
		}
	}
	if requests == 0 {
		t.Error("no request spans recorded")
	}
	var selfSum float64
	for _, v := range selfTimes(spans) {
		selfSum += v
	}
	// Two clients' request spans can cover the same instant, so the bound
	// is the root's duration once per client.
	if limit := (root.End - root.Start) * float64(cfg.clients); selfSum > limit*(1+1e-9) {
		t.Errorf("self times sum to %.1f us, more than %d clients x the root span = %.1f us", selfSum, cfg.clients, limit)
	}

	var shares float64
	for _, b := range cpuBuckets {
		shares += value[b+"_frac"]
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("CPU shares sum to %v, want 1", shares)
	}
	for _, size := range []string{"1k", "128k"} {
		prev := 0.0
		for _, rung := range ladder {
			v := value[rung.layer+".ladder_ns_per_msg."+size]
			if v < prev || v <= 0 {
				t.Errorf("ladder %s: rung %s = %v ns/msg, below the rung under it (%v)", size, rung.layer, v, prev)
			}
			prev = v
		}
	}
	if value["nbc.persistent_iter_allocs"] != 0 {
		t.Errorf("persistent Ibcast iteration allocates: %v allocs", value["nbc.persistent_iter_allocs"])
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// Overlapping children (two clients' requests under one pass) are counted
// once in the parent's covered time.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	self := selfTimes([]span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "request", Start: 10, End: 60},
		{ID: 2, Parent: 0, Name: "request", Start: 40, End: 90},
	})
	if self["pass"] != 20 || self["request"] != 100 {
		t.Errorf("self times %v, want pass 20 (100 minus the union [10, 90]) and request 100", self)
	}
}

// quantile must give the quartiles the acceptance rule is stated in.
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} { // statistics.quantiles(range(1, 11), n=4)
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", q, got, want)
		}
	}
}

// The interaction table must name a layer and a prediction for every
// per-layer metric the manifest lists.
func TestInteractionsCoverEveryLayerMetric(t *testing.T) {
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var table []struct {
		Match string `json:"match"`
		Layer string `json:"layer"`
		Moves []struct {
			Metric   string `json:"metric"`
			Workload string `json:"workload"`
		} `json:"moves"`
	}
	readJSON(t, "perf/interactions.json", &table)
	e2e := map[string]bool{}
	for _, em := range m.EndToEnd {
		e2e[em.Name] = true
	}
	for _, row := range table {
		for _, mv := range row.Moves {
			if _, ok := workloads[mv.Workload]; !ok || !e2e[mv.Metric] {
				t.Errorf("%s: moves (%s, %s) names an unknown metric or workload", row.Match, mv.Metric, mv.Workload)
			}
		}
	}
	for _, pm := range m.PerLayer {
		found := false
		for _, row := range table {
			if ok, _ := filepath.Match(row.Match, pm.Name); ok {
				found = row.Layer != ""
				break
			}
		}
		if !found {
			t.Errorf("per-layer metric %s has no row in perf/interactions.json", pm.Name)
		}
	}
}
