package bench

import "testing"

// TestCatalogue checks the catalogue as data: every name resolves at both
// scales, and the fast grids have the scenario counts and seeds of the
// committed results/ files.
func TestCatalogue(t *testing.T) {
	for _, name := range SuiteNames() {
		for _, fast := range []bool{true, false} {
			suites, err := Suites(name, fast)
			if err != nil {
				t.Fatalf("%s fast=%v: %v", name, fast, err)
			}
			for _, s := range suites {
				kinds := 0
				for _, n := range []int{len(s.Micro), len(s.FFT), len(s.Guidelines)} {
					if n > 0 {
						kinds++
					}
				}
				if kinds != 1 {
					t.Errorf("%s fast=%v: member %s has %d micro, %d FFT and %d guideline scenarios, want exactly one kind",
						name, fast, s.Name, len(s.Micro), len(s.FFT), len(s.Guidelines))
				}
			}
		}
	}

	figures := []struct {
		name        string
		scenarios   int
		first, step int64 // seed of scenario i is first + i*step
	}{
		{"verification", 24, 101, 1},
		{"fft", 8, 501, 1},
		{"scale", 6, 1501, 1},
		{"fig2", 4, 21, 0},
		{"fig3", 2, 31, 0},
		{"fig4", 2, 41, 0},
		{"fig5", 2, 51, 0},
		{"fig6", 6, 61, 0},
		{"fig7", 5, 71, 0},
		{"fig9", 8, 92, 1},
		{"fig10", 8, 92, 1},
		{"fig11", 16, 92, 1},
		{"fig12", 4, 122, 1},
		{"guidelines", 14, 42, 0},
	}
	if len(figures) != len(catalogue) {
		t.Errorf("%d suites pinned, catalogue has %d", len(figures), len(catalogue))
	}
	for _, f := range figures {
		suites, err := Suites(f.name, true)
		if err != nil || len(suites) != 1 {
			t.Fatalf("%s: %d suites, err %v", f.name, len(suites), err)
		}
		var seeds []int64
		for _, m := range suites[0].Micro {
			seeds = append(seeds, m.Seed)
		}
		for _, s := range suites[0].FFT {
			seeds = append(seeds, s.Seed)
		}
		for _, g := range suites[0].Guidelines {
			seeds = append(seeds, g.Seed)
		}
		if len(seeds) != f.scenarios {
			t.Errorf("%s: %d scenarios, want %d", f.name, len(seeds), f.scenarios)
		}
		for i, seed := range seeds {
			if want := f.first + int64(i)*f.step; seed != want {
				t.Errorf("%s scenario %d: seed %d, want %d", f.name, i, seed, want)
			}
		}
	}

	for bundle, want := range map[string]int{"figs-micro": 6, "figs-fft": 4} {
		if suites, _ := Suites(bundle, true); len(suites) != want {
			t.Errorf("%s runs %d suites, want %d", bundle, len(suites), want)
		}
	}
}

// TestEverySuiteSummarizes: every suite of the catalogue but the guideline
// audit fills Outcome.Summary, one row per scenario with its keys and one
// run per implementation, flavor or selector, and renders its tables from
// it. Each suite runs its first two scenarios shrunk to 8 ranks and few
// iterations (the FFT ones on a 32-point grid), so the check costs seconds.
func TestEverySuiteSummarizes(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range SuiteNames() {
		suites, err := Suites(name, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range suites {
			if seen[s.Name] || s.Guidelines != nil {
				continue
			}
			seen[s.Name] = true
			s.Micro, s.FFT = s.Micro[:min(2, len(s.Micro))], s.FFT[:min(2, len(s.FFT))]
			for i := range s.Micro {
				m := &s.Micro[i]
				m.Procs, m.MsgSize, m.ProgressCalls = 8, min(m.MsgSize, 4096), min(m.ProgressCalls, 5)
				m.Iterations = 2*len(m.FunctionNames()) + 2
			}
			for i := range s.FFT {
				s.FFT[i].Procs, s.FFT[i].N, s.FFT[i].Iterations = 8, 32, 8
			}
			o, err := s.Run(RunOptions{Workers: 2}, nil)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			sum := o.Summary
			if sum == nil || len(o.Tables) == 0 {
				t.Fatalf("%s: no summary or no tables", s.Name)
			}
			runs := max(len(s.Flavors), 2) // the §IV-B sweep: LibNBC and ADCL
			if s.Micro != nil {
				runs = len(s.Micro[0].FunctionNames()) + len(s.Selectors)
			}
			if s.Impls > 0 {
				runs = s.Impls
			}
			if sum.Suite != s.Name || sum.Scenarios != len(s.Micro)+len(s.FFT) || len(sum.Rows) != sum.Scenarios {
				t.Errorf("%s: summary of suite %q, %d scenarios, %d rows", s.Name, sum.Suite, sum.Scenarios, len(sum.Rows))
			}
			for _, r := range sum.Rows {
				if r.Platform == "" || r.Procs != 8 || (r.Op == "") == (r.Pattern == "") || r.Size == 0 || r.Op != "" && r.Progress == 0 || len(r.Runs) != runs {
					t.Errorf("%s: row %+v lacks a key or has %d runs, want %d", s.Name, r, len(r.Runs), runs)
				}
			}
		}
	}
	if len(seen) != len(catalogue)-1 {
		t.Errorf("%d suites summarized, want every one of %d but the guideline audit", len(seen), len(catalogue))
	}
}
