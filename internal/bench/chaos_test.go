package bench

// Chaos determinism: a chaos profile is part of a spec, so the same
// (spec, chaos, chaos-seed) triple must reproduce byte-identical summaries
// and traces — the content-addressed cache and every committed artifact
// depend on it — while different chaos seeds must actually perturb the
// timeline. The clean path is pinned against the committed sweep summary.

import (
	"bytes"
	"encoding/json"
	"testing"

	"nbctune/internal/platform"
)

// chaosSpecs is sweepSpecs with a noisy profile attached.
func chaosSpecs(t *testing.T, chaosSeed int64) []MicroSpec {
	specs := sweepSpecs(t)
	for i := range specs {
		specs[i].Chaos = "congested"
		specs[i].ChaosSeed = chaosSeed
	}
	return specs
}

func TestChaosSweepSameSeedByteIdentical(t *testing.T) {
	sels := []string{"brute-force"}
	s1, err := VerificationSweepOpts(chaosSpecs(t, 5), sels, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := VerificationSweepOpts(chaosSpecs(t, 5), sels, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := s1.Summary().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Summary().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("same chaos seed gave different summaries:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

func TestChaosSweepDifferentSeedsDiffer(t *testing.T) {
	sels := []string{"brute-force"}
	s1, err := VerificationSweepOpts(chaosSpecs(t, 5), sels, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := VerificationSweepOpts(chaosSpecs(t, 6), sels, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := range s1.Runs {
		for j := range s1.Runs[i].Fixed {
			if s1.Runs[i].Fixed[j].Total != s2.Runs[i].Fixed[j].Total {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("different chaos seeds produced identical virtual times everywhere")
	}
}

func TestChaosVsCleanDiffer(t *testing.T) {
	// The injector must actually bite: a noisy run is slower than the clean
	// run of the same spec.
	spec := smallSpec(t)
	clean, err := RunFixed(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.Chaos, spec.ChaosSeed = "congested", 3
	noisy, err := RunFixed(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Total <= clean.Total {
		t.Fatalf("chaos run (%g) not slower than clean run (%g)", noisy.Total, clean.Total)
	}
}

func TestChaosTraceDeterministic(t *testing.T) {
	spec := smallSpec(t)
	spec.Observe = true
	spec.Chaos, spec.ChaosSeed = "os-jitter", 11
	trace := func(chaosSeed int64) []byte {
		s := spec
		s.ChaosSeed = chaosSeed
		_, rec, err := runFixed(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := rec.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	t1, t2 := trace(11), trace(11)
	if !bytes.Equal(t1, t2) {
		t.Fatal("same chaos seed gave different Perfetto traces")
	}
	if bytes.Equal(t1, trace(12)) {
		t.Fatal("different chaos seeds gave byte-identical traces")
	}
}

func TestChaosSpecFieldsOmittedWhenClean(t *testing.T) {
	// Clean specs must fingerprint (and therefore cache-address) exactly as
	// they did before the chaos fields existed.
	for _, v := range []any{smallSpec(t), FFTSpec{Procs: 4}} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(`"Chaos"`)) || bytes.Contains(b, []byte(`"ChaosSeed"`)) {
			t.Fatalf("clean spec serializes chaos fields: %s", b)
		}
	}
}

// TestChaosProfileChangesWinnerEnvironmentDependence is the seed of E13b:
// under the regime-shift profile the measured landscape differs from the
// clean one, which is why history entries carry environment fingerprints.
func TestChaosLandscapeDiffersFromClean(t *testing.T) {
	plat, err := platform.ByName("crill")
	if err != nil {
		t.Fatal(err)
	}
	spec := MicroSpec{
		Platform: plat, Procs: 8, MsgSize: 256 * 1024, Op: OpIbcast,
		ComputePerIter: 2e-3, Iterations: 4, ProgressCalls: 2, Seed: 9, EvalsPerFn: 1,
	}
	clean, err := allFixed(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Chaos, spec.ChaosSeed = "regime-shift", 7
	noisy, err := allFixed(spec)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := range clean {
		if clean[i].Total != noisy[i].Total {
			differs = true
		}
	}
	if !differs {
		t.Fatal("regime-shift profile left every Ibcast variant's time unchanged")
	}
}
