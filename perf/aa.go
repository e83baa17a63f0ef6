package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// manifest is the part of BENCHMARK.json the harness itself reads: the
// workload list and the end-to-end metrics with their regression bounds.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s (run from the repository root): %w", path, err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runAA measures the benchmark's own noise the way the acceptance procedure
// does: every workload n times on seeds 1..n, then the same again — two sets
// of runs of this same binary, one after the other, so a host phase can fall
// on one set alone. For every (metric, workload) it prints both medians,
// quartiles, each set's spread (IQR ÷ median) and how much worse set B's
// median is than set A's, against the metric's bound.
func runAA(n, seconds int, w io.Writer) error {
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# A/A noise of the perf harness\n\n")
	fmt.Fprintf(w, "`perf -aa %d -seconds %d` on %s, %d CPUs, every run at GOMAXPROCS %d, %s, %s.\n\n", n, seconds,
		cpuModel(), runtime.NumCPU(), benchProcs, runtime.Version(), time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(w, "Two sets of %d runs of one binary per workload, set A then set B, run i of each set on seed i. "+
		"spread = (Q3 − Q1) ÷ median with Python's `statistics.quantiles(n=4)` quartiles; "+
		"B vs A = how much worse set B's median is than set A's (negative = better). "+
		"A pair is **over** when a spread or the between-set difference exceeds the bound.\n\n", n)

	over := 0
	for _, wl := range m.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			set, seed := i/n, 1+i%n
			vals, err := runChild(self, wl.Name, seed, seconds)
			if err != nil {
				return err
			}
			for name, v := range vals {
				sets[set][name] = append(sets[set][name], v)
			}
		}
		fmt.Fprintf(w, "## %s\n\n", wl.Name)
		fmt.Fprintf(w, "| metric | unit | A median [Q1, Q3] | B median [Q1, Q3] | spread A | spread B | B vs A | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
		for _, em := range m.EndToEnd {
			a, b := sets[0][em.Name], sets[1][em.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if em.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(a), spread(b)
			verdict := ""
			// setup_s's spread is reported but only its medians are judged.
			if worse > em.Bound || (em.Name != "setup_s" && (sa > em.Bound || sb > em.Bound)) {
				verdict = "**over**"
				over++
			}
			fmt.Fprintf(w, "| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.2f %% | %.2f %% | %+.2f %% | %.0f %% | %s |\n",
				em.Name, em.Unit, ma, quantile(a, .25), quantile(a, .75), mb, quantile(b, .25), quantile(b, .75),
				100*sa, 100*sb, 100*worse, 100*em.Bound, verdict)
		}
		fmt.Fprintf(w, "\nnorm_ops_per_s by run — A: %s — B: %s\n\n", fmtRuns(sets[0]["norm_ops_per_s"]), fmtRuns(sets[1]["norm_ops_per_s"]))
		fmt.Fprintf(w, "uncorrected ops_per_s by run (spread A %.2f %%, B %.2f %%) — A: %s — B: %s\n\n",
			100*spread(sets[0][rawOps]), 100*spread(sets[1][rawOps]), fmtRuns(sets[0][rawOps]), fmtRuns(sets[1][rawOps]))
	}
	fmt.Fprintf(w, "%d (metric, workload) pairs over their bound.\n", over)
	return nil
}

// rawOps keys the uncorrected throughput of a child run.
const rawOps = "raw ops_per_s"

func fmtRuns(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(s, " ")
}

func spread(xs []float64) float64 {
	return (quantile(xs, .75) - quantile(xs, .25)) / median(xs)
}

// runChild runs one untraced workload in a fresh process (one workload per
// process, as every measurement is) and returns its end-to-end metrics.
func runChild(self, workload string, seed, seconds int) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last output line is not the result object: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: output checks failed:\n%s", workload, seed, out.String())
	}
	vals := map[string]float64{}
	// The uncorrected throughput is a note, not a metric: "# host: … ops_per_s=X …".
	for _, line := range lines {
		if _, rest, ok := strings.Cut(line, " ops_per_s="); ok && strings.HasPrefix(line, "# host:") {
			field, _, _ := strings.Cut(rest, " ")
			if v, err := strconv.ParseFloat(field, 64); err == nil {
				vals[rawOps] = v
			}
		}
	}
	for name, v := range res.Metrics {
		vals[name] = v.Value
	}
	return vals, nil
}
