package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nbctune/internal/core"
	"nbctune/internal/fft"
	"nbctune/internal/obs"
	"nbctune/internal/platform"
)

// pdesSpec is the determinism-matrix workload: 64 ranks block-placed over 16
// bgp-16k nodes, so shard counts 1/2/4/8 all divide the node set.
func pdesSpec(t *testing.T) MicroSpec {
	t.Helper()
	plat, err := platform.ByName("bgp-16k")
	if err != nil {
		t.Fatal(err)
	}
	return MicroSpec{
		Platform:       plat,
		Procs:          64,
		MsgSize:        8 * 1024,
		Op:             OpIbcastScalable,
		ComputePerIter: 2e-3,
		Iterations:     12,
		ProgressCalls:  2,
		Seed:           7,
		EvalsPerFn:     1,
		Placement:      platform.Block,
		PDES:           true,
	}
}

// TestPDESDeterminismMatrix is the tentpole acceptance test at the bench
// layer: sweep summaries, Perfetto traces, and selection audits produced by a
// PDES run — and the results of an FFT-kernel comparison on the sharded
// world — are byte-identical at shard counts 1, 2, 4 and 8.
func TestPDESDeterminismMatrix(t *testing.T) {
	spec := pdesSpec(t)

	type artifacts struct {
		result  []byte // MicroResult JSON (what sweep summaries aggregate)
		trace   []byte // Chrome/Perfetto trace
		audit   []byte // rank-0 selection audit JSON
		summary []byte // verification-sweep summary JSON
		fft     []byte // FFTResult JSON of a three-flavor kernel comparison
	}
	run := func(shards int) artifacts {
		s := spec
		s.Shards = shards
		var a artifacts

		// ADCL result + trace.
		observed := s
		observed.Observe = true
		res, rec, err := runADCL(observed, "brute-force")
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		a.result, err = json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var tr bytes.Buffer
		if err := rec.WriteChromeTrace(&tr); err != nil {
			t.Fatalf("shards=%d: trace: %v", shards, err)
		}
		a.trace = tr.Bytes()

		// Selection audit from a rank-0-attached selector (the cmd/tune
		// -metrics path).
		w, err := s.World()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var audit *obs.Audit
		if _, _, err := runLoop(s, w, "", func(rank int, fs *core.FunctionSet) (core.Selector, error) {
			sel, err := core.SelectorByName("brute-force", fs, s.evals())
			if err == nil && rank == 0 {
				audit = core.AttachAudit(sel, fs)
			}
			return sel, err
		}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if a.audit, err = json.Marshal(audit); err != nil {
			t.Fatalf("shards=%d: audit: %v", shards, err)
		}

		// Full verification-sweep summary over the spec.
		st, err := VerificationSweepOpts([]MicroSpec{s}, []string{"brute-force", "attr-heuristic"}, RunOptions{})
		if err != nil {
			t.Fatalf("shards=%d: sweep: %v", shards, err)
		}
		var sm bytes.Buffer
		if err := st.Summary().WriteJSON(&sm); err != nil {
			t.Fatal(err)
		}
		a.summary = sm.Bytes()

		// The 3D-FFT kernel on the same machine: blocking, LibNBC and tuned
		// transposes, 16 ranks on 4 nodes.
		rs, err := FFTComparison(FFTSpec{
			Platform: s.Platform, Procs: 16, N: 32, Pattern: fft.WindowTiled, Iterations: 8,
			Seed: 7, EvalsPerFn: 1, Placement: platform.Block, PDES: true, Shards: shards,
		}, []fft.Flavor{fft.FlavorMPI, fft.FlavorNBC, fft.FlavorADCLExt}, nil)
		if err != nil {
			t.Fatalf("shards=%d: fft: %v", shards, err)
		}
		if a.fft, err = json.Marshal(rs); err != nil {
			t.Fatal(err)
		}
		return a
	}

	base := run(1)
	if len(base.trace) == 0 || len(base.audit) == 0 || len(base.summary) == 0 {
		t.Fatal("baseline artifacts empty")
	}
	for _, shards := range []int{2, 4, 8} {
		got := run(shards)
		if !bytes.Equal(got.result, base.result) {
			t.Errorf("shards=%d: MicroResult JSON differs from shards=1:\n%s\nvs\n%s", shards, got.result, base.result)
		}
		if !bytes.Equal(got.trace, base.trace) {
			t.Errorf("shards=%d: Perfetto trace differs from shards=1 (%d vs %d bytes)", shards, len(got.trace), len(base.trace))
		}
		if !bytes.Equal(got.audit, base.audit) {
			t.Errorf("shards=%d: selection audit differs from shards=1", shards)
		}
		if !bytes.Equal(got.summary, base.summary) {
			t.Errorf("shards=%d: sweep summary differs from shards=1:\n%s\nvs\n%s", shards, got.summary, base.summary)
		}
		if !bytes.Equal(got.fft, base.fft) {
			t.Errorf("shards=%d: FFT comparison differs from shards=1:\n%s\nvs\n%s", shards, got.fft, base.fft)
		}
	}
}

// TestPDESGates pins the one spec-level guard, chaos profiles, and that a
// speculative run is no longer one: on the sharded world it commits a winner
// and its whole result — audit samples, candidate durations, the committed
// loop — is identical at 1, 2 and 4 shards.
func TestPDESGates(t *testing.T) {
	spec := pdesSpec(t)
	spec.Chaos = "noisy-neighbor"
	if _, err := RunADCL(spec, "brute-force"); err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("PDES+chaos: err = %v, want chaos rejection", err)
	}
	spec.Chaos = ""
	var base []byte
	for _, shards := range []int{1, 2, 4} {
		spec.Shards = shards
		r, err := RunSpeculative(spec, "brute-force", 2)
		if err != nil {
			t.Fatalf("RunSpeculative on %d shards: %v", shards, err)
		}
		if r.Result.Winner == "" || !bytes.Contains(encode(t, r.Audit), []byte(`"kind":"sample"`)) {
			t.Fatalf("shards=%d: winner %q, audit without samples", shards, r.Result.Winner)
		}
		if got := encode(t, r); base == nil {
			base = got
		} else if !bytes.Equal(got, base) {
			t.Errorf("shards=%d: speculative result differs from shards=1:\n%s\nvs\n%s", shards, got, base)
		}
	}
}
