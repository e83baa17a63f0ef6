package bench

// Selector ablation under noise: the reason ADCL scores implementations
// with an outlier-filtered estimate (paper §III) instead of a plain mean.
// Under the os-jitter profile a 2 ms OS detour occasionally lands inside a
// timed iteration; the filter discards the spiked sample, the mean is
// dragged by it. The configurations below were found by scanning chaos
// seeds and are pinned as a regression: if the outlier filter (or the
// chaos streams feeding it) change behavior, these flip.

import (
	"testing"

	"nbctune/internal/platform"
)

// ablationSpec is a scenario where spikes hit a minority of samples: one
// progress call per iteration keeps detour draws rare, five evals give the
// filter a clean majority.
func ablationSpec(t *testing.T) MicroSpec {
	t.Helper()
	plat, err := platform.ByName("crill")
	if err != nil {
		t.Fatal(err)
	}
	return MicroSpec{
		Platform: plat, Procs: 4, MsgSize: 64 * 1024, Op: OpIalltoall,
		ComputePerIter: 2e-3, Iterations: 24, ProgressCalls: 1, Seed: 3, EvalsPerFn: 5,
	}
}

// trueBest returns the clean-path winner's name. os-jitter perturbs only
// compute, not links, so the clean ranking is the ground truth under it.
func trueBest(t *testing.T, spec MicroSpec) string {
	t.Helper()
	clean := spec
	clean.Chaos, clean.ChaosSeed = "", 0
	fixed, err := allFixed(clean)
	if err != nil {
		t.Fatal(err)
	}
	best, bestT := 0, fixed[0].Total
	for i, r := range fixed {
		if r.Total < bestT {
			best, bestT = i, r.Total
		}
	}
	return spec.FunctionNames()[best]
}

func TestOutlierFilterBeatsMeanUnderNoise(t *testing.T) {
	spec := ablationSpec(t)
	spec.Chaos, spec.ChaosSeed = "os-jitter", 5
	want := trueBest(t, spec)

	robust, err := RunADCL(spec, "brute-force")
	if err != nil {
		t.Fatal(err)
	}
	mean, err := RunADCL(spec, "brute-force-mean")
	if err != nil {
		t.Fatal(err)
	}
	if robust.Winner != want {
		t.Fatalf("outlier-filtered selection picked %q, true best is %q", robust.Winner, want)
	}
	if mean.Winner == want {
		t.Fatalf("plain-mean selection picked the true best %q — the pinned noise schedule no longer fools it", mean.Winner)
	}
}

func TestOutlierFilterNeverWorseThanMean(t *testing.T) {
	// Across a band of chaos seeds the filtered score must be right at
	// least as often as the plain mean (it strictly wins on seed 5 above).
	spec := ablationSpec(t)
	want := trueBest(t, spec)
	robustOK, meanOK := 0, 0
	for cs := int64(1); cs <= 8; cs++ {
		s := spec
		s.Chaos, s.ChaosSeed = "os-jitter", cs
		robust, err := RunADCL(s, "brute-force")
		if err != nil {
			t.Fatal(err)
		}
		mean, err := RunADCL(s, "brute-force-mean")
		if err != nil {
			t.Fatal(err)
		}
		if robust.Winner == want {
			robustOK++
		}
		if mean.Winner == want {
			meanOK++
		}
	}
	t.Logf("correct decisions over 8 noisy seeds: robust %d, mean %d", robustOK, meanOK)
	if robustOK < meanOK {
		t.Fatalf("outlier filter (%d/8 correct) did worse than plain mean (%d/8)", robustOK, meanOK)
	}
	if robustOK < 5 {
		t.Fatalf("outlier filter correct only %d/8 times under os-jitter", robustOK)
	}
}
