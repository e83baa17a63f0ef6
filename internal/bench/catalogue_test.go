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
		summary     bool  // sweep -out has something to write
	}{
		{"verification", 24, 101, 1, true},
		{"fft", 8, 501, 1, true},
		{"scale", 6, 1501, 1, true},
		{"fig2", 4, 21, 0, true},
		{"fig3", 2, 31, 0, false},
		{"fig4", 2, 41, 0, false},
		{"fig5", 2, 51, 0, false},
		{"fig6", 6, 61, 0, false},
		{"fig7", 5, 71, 0, false},
		{"fig9", 8, 92, 1, false},
		{"fig10", 8, 92, 1, false},
		{"fig11", 16, 92, 1, false},
		{"fig12", 4, 122, 1, false},
		{"guidelines", 14, 42, 0, true},
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
		if got := suites[0].Summarizes(); got != f.summary {
			t.Errorf("%s: Summarizes() = %v, want %v", f.name, got, f.summary)
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
