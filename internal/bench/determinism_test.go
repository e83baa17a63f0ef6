package bench

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"nbctune/internal/chaos"
	"nbctune/internal/fft"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

// Determinism is the invariant the content-addressed result cache relies
// on: a job's fingerprint covers its full input spec, so serving a cached
// result is only sound if re-running the same seeded spec would reproduce
// it bit-for-bit. These tests pin that invariant at every level the runner
// caches at.

// encode JSON-encodes v the same way the runner does for caching.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVerificationDeterministic(t *testing.T) {
	// The same seeded MicroSpec, run twice, must produce identical
	// virtual-time results — fixed implementations and ADCL runs alike.
	spec := smallSpec(t)
	v1, err := RunVerificationOpts(spec, RunOptions{}, "brute-force")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := RunVerificationOpts(spec, RunOptions{}, "brute-force")
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := encode(t, v1), encode(t, v2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seeded spec gave different results:\n%s\nvs\n%s", b1, b2)
	}
	for i := range v1.Fixed {
		if v1.Fixed[i].Total != v2.Fixed[i].Total {
			t.Fatalf("fixed %d: %g vs %g", i, v1.Fixed[i].Total, v2.Fixed[i].Total)
		}
	}
	if v1.ADCL[0].Total != v2.ADCL[0].Total || v1.ADCL[0].Winner != v2.ADCL[0].Winner {
		t.Fatal("ADCL run not reproducible")
	}
}

func TestFFTDeterministic(t *testing.T) {
	plat, err := platform.ByName("whale")
	if err != nil {
		t.Fatal(err)
	}
	spec := FFTSpec{
		Platform: plat, Procs: 8, N: 32, Pattern: fft.Tiled,
		Iterations: 10, Seed: 11, EvalsPerFn: 2,
	}
	r1, err := RunFFT(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFFT(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, r1), encode(t, r2)) {
		t.Fatalf("FFT run not reproducible: %+v vs %+v", r1, r2)
	}
}

// sweepSpecs is a small but non-trivial grid for the parallel/cache tests.
func sweepSpecs(t *testing.T) []MicroSpec {
	t.Helper()
	crill, err := platform.ByName("crill")
	if err != nil {
		t.Fatal(err)
	}
	var specs []MicroSpec
	for i, msg := range []int{1024, 64 * 1024, 128 * 1024} {
		specs = append(specs, MicroSpec{
			Platform: crill, Procs: 8, MsgSize: msg, Op: OpIalltoall,
			ComputePerIter: 5e-3, Iterations: 20, ProgressCalls: 4,
			Seed: int64(40 + i), EvalsPerFn: 4,
		})
	}
	return specs
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	// The aggregated sweep — and therefore any summary rendered from it —
	// must be byte-identical whether scenarios ran on one worker or many,
	// whatever order they completed in.
	specs := sweepSpecs(t)
	sels := []string{"brute-force"}
	seq, err := VerificationSweepOpts(specs, sels, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := VerificationSweepOpts(specs, sels, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seqJSON, parJSON := indented(t, seq.Summary()), indented(t, par.Summary()); seqJSON != parJSON {
		t.Fatalf("parallel sweep summary differs from sequential:\n%s\nvs\n%s", seqJSON, parJSON)
	}
}

func TestSweepCacheRoundTrip(t *testing.T) {
	// A cached sweep must resume to the exact same summary, with every
	// scenario served from the store on the second pass.
	dir := t.TempDir()
	cache, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := sweepSpecs(t)
	sels := []string{"brute-force"}
	cold, err := VerificationSweepOpts(specs, sels, RunOptions{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if ents, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(ents) != len(specs) {
		t.Fatalf("store has %d entries, want %d", len(ents), len(specs))
	}
	warm, err := VerificationSweepOpts(specs, sels, RunOptions{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if coldJSON, warmJSON := indented(t, cold.Summary()), indented(t, warm.Summary()); coldJSON != warmJSON {
		t.Fatalf("cached sweep summary differs from cold run:\n%s\nvs\n%s", coldJSON, warmJSON)
	}
}

func TestVerificationKeysDistinguishSpecs(t *testing.T) {
	specs := sweepSpecs(t)
	sels := []string{"brute-force"}
	k1 := VerificationKey(specs[0], sels)
	if k1 == "" {
		t.Fatal("spec did not fingerprint")
	}
	if k2 := VerificationKey(specs[1], sels); k2 == k1 {
		t.Fatal("different specs share a fingerprint")
	}
	if k3 := VerificationKey(specs[0], []string{"attr-heuristic"}); k3 == k1 {
		t.Fatal("different selectors share a fingerprint")
	}
	other := specs[0]
	other.Seed++
	if k4 := VerificationKey(other, sels); k4 == k1 {
		t.Fatal("different seeds share a fingerprint")
	}
}

// TestPresetNoiseInKeys: a preset carries its OS noise as data, so two presets
// that differ only in their noise never share a cached result, fixed or
// verification, and neither do the FFT specs over them.
func TestPresetNoiseInKeys(t *testing.T) {
	spec := smallSpec(t)
	quiet := spec
	quiet.Platform.Noise = chaos.OSNoise{}
	if FixedKey(spec, 0) == FixedKey(quiet, 0) {
		t.Error("presets differing only in OS noise share a FixedKey")
	}
	if sels := []string{"brute-force"}; VerificationKey(spec, sels) == VerificationKey(quiet, sels) {
		t.Error("presets differing only in OS noise share a VerificationKey")
	}
	fs := FFTSpec{Platform: spec.Platform, Procs: 4, N: 16, Iterations: 2, Seed: 1}
	fq := fs
	fq.Platform = quiet.Platform
	if FFTKey(fs) == FFTKey(fq) {
		t.Error("presets differing only in OS noise share an FFTKey")
	}
}

// TestExactTimeTieOrder pins one total that depends on the order in which
// events at exactly the same virtual time fire: in Fig 3's whale-tcp pairwise
// run, ranks 11, 12 and 13 issue a control message at precisely
// t = 0.06902541006794771 s, in the order 13, 11, 12 — the order in which
// their last CPU charges were scheduled, each one when the charge before it
// ended. That is why a rank's consecutive charges stay one event each
// (sim.Proc.Advance keeps every stop) instead of being coalesced into one
// wake-up at the same final instant: coalescing fires a quarter fewer events
// but moves this total to 2.786075017108661 s and, with it and others like
// it, lines of results/microbench.txt. Otherwise only `make e2e` row 5 sees
// this case, at four decimals.
func TestExactTimeTieOrder(t *testing.T) {
	suites, err := Suites("fig3", true)
	if err != nil {
		t.Fatal(err)
	}
	spec := suites[0].Micro[1]
	if spec.Platform.Name != "whale-tcp" || spec.Procs != 32 || spec.MsgSize != 128*1024 || spec.ProgressCalls != 5 || spec.Seed != 31 {
		t.Fatalf("Fig 3's second scenario is no longer whale-tcp np=32 128KB, 5 progress calls, seed 31: %+v", spec)
	}
	names := spec.FunctionNames()
	for fn, name := range names {
		if name != "ialltoall-pairwise" {
			continue
		}
		r, err := RunFixed(spec, fn)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2.7860969647822715; r.Total != want {
			t.Fatalf("total %v s, want exactly %v", r.Total, want)
		}
		return
	}
	t.Fatalf("no ialltoall-pairwise among %v", names)
}

// TestPutTotalsPinned pins the fixed-run total of every ialltoall-prim
// function, the two-sided ones and the one-sided puts, on an RDMA fabric
// (whale: a put lands with no target CPU) and a host-attended one (whale-tcp:
// the target copies each put in at its next MPI instant). Where the put
// protocol keeps its records and how it finds the target window may change;
// these totals may not.
func TestPutTotalsPinned(t *testing.T) {
	want := map[string]map[string]float64{
		"whale": {
			"ialltoall-linear":        0.032138643821106504,
			"ialltoall-dissemination": 0.04202543162416631,
			"ialltoall-pairwise":      0.03434874391909794,
			"ialltoall-linear-put":    0.03171460382110645,
			"ialltoall-pairwise-put":  0.032799003783639605,
		},
		"whale-tcp": {
			"ialltoall-linear":        0.06956463707627114,
			"ialltoall-dissemination": 0.07134307128526562,
			"ialltoall-pairwise":      0.046098781563743314,
			"ialltoall-linear-put":    0.06955947707627118,
			"ialltoall-pairwise-put":  0.0454139828878081,
		},
	}
	for name, totals := range want {
		plat, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := allFixed(MicroSpec{
			Platform: plat, Procs: 8, MsgSize: 64 * 1024, Op: "ialltoall-prim",
			ComputePerIter: 5e-3, Iterations: 6, ProgressCalls: 4, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(totals) {
			t.Fatalf("%s: %d functions, want %d", name, len(rs), len(totals))
		}
		for _, r := range rs {
			if w, ok := totals[r.Impl]; !ok || r.Total != w {
				t.Errorf("%s %s: total %v s, want exactly %v", name, r.Impl, r.Total, w)
			}
		}
	}
}

// indented is v as the summary files spell it, for comparing two summaries
// in memory and printing both when they differ.
func indented(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
