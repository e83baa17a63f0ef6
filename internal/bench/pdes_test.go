package bench

import (
	"bytes"
	"strings"
	"testing"

	"nbctune/internal/chaos/profiles"
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

// shardArtifacts are what one run of a spec leaves behind: its MicroResult
// JSON (what sweep summaries aggregate), its Chrome/Perfetto trace and its
// rank-0 selection audit JSON (the cmd/tune -metrics path), from one observed
// brute-force ADCL run.
type shardArtifacts struct{ result, trace, audit []byte }

func runArtifacts(t *testing.T, s MicroSpec) shardArtifacts {
	t.Helper()
	s.Observe = true
	w, err := s.World()
	if err != nil {
		t.Fatalf("shards=%d: %v", s.Shards, err)
	}
	var audit *obs.Audit
	res, rec, err := runLoop(s, w, "adcl:brute-force", func(rank int, fs *core.FunctionSet) (core.Selector, error) {
		sel, err := core.SelectorByName("brute-force", fs, s.evals())
		if err == nil && rank == 0 {
			audit = core.AttachAudit(sel, fs)
		}
		return sel, err
	})
	if err != nil {
		t.Fatalf("shards=%d: %v", s.Shards, err)
	}
	var tr bytes.Buffer
	if err := rec.WriteChromeTrace(&tr); err != nil {
		t.Fatalf("shards=%d: trace: %v", s.Shards, err)
	}
	return shardArtifacts{encode(t, res), tr.Bytes(), encode(t, audit)}
}

// TestPDESDeterminismMatrix is the tentpole acceptance test at the bench
// layer: sweep summaries, Perfetto traces, and selection audits produced by a
// PDES run — the results of an FFT-kernel comparison and of every put and
// two-sided ialltoall-prim function, payloads checked, on the sharded world
// — are byte-identical at shard counts 1, 2, 4 and 8.
func TestPDESDeterminismMatrix(t *testing.T) {
	spec := pdesSpec(t)

	type artifacts struct {
		shardArtifacts
		summary []byte // verification-sweep summary JSON
		fft     []byte // FFTResult JSON of a three-flavor kernel comparison
		puts    []byte // ialltoall-prim with Data: fixed-run MicroResults, then an ADCL run's artifacts
	}
	// Puts on an RDMA torus and on a host-attended fabric, where the target
	// copies each put in at its next MPI instant.
	tcp, err := platform.ByName("whale-tcp")
	if err != nil {
		t.Fatal(err)
	}
	var puts []MicroSpec
	for _, plat := range []platform.Platform{spec.Platform, tcp} {
		p := spec
		p.Platform, p.Op, p.Procs, p.MsgSize, p.Iterations, p.Data = plat, "ialltoall-prim", 32, 4096, 8, true
		puts = append(puts, p)
	}
	run := func(shards int) artifacts {
		s := spec
		s.Shards = shards
		a := artifacts{shardArtifacts: runArtifacts(t, s)}

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
		a.fft = encode(t, rs)

		for _, p := range puts {
			p.Shards = shards
			rs, err := allFixed(p)
			if err != nil {
				t.Fatalf("shards=%d: ialltoall-prim on %s: %v", shards, p.Platform.Name, err)
			}
			if len(rs) != 5 {
				t.Fatalf("ialltoall-prim has %d functions, want three two-sided and two put-based", len(rs))
			}
			adcl := runArtifacts(t, p)
			a.puts = bytes.Join([][]byte{a.puts, encode(t, rs), adcl.result, adcl.trace, adcl.audit}, nil)
		}
		return a
	}

	base := run(1)
	if len(base.trace) == 0 || len(base.audit) == 0 || len(base.summary) == 0 || len(base.puts) == 0 {
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
		if !bytes.Equal(got.puts, base.puts) {
			t.Errorf("shards=%d: ialltoall-prim results differ from shards=1:\n%s\nvs\n%s", shards, got.puts, base.puts)
		}
	}
}

// TestPDESChaosProfiles: every shipped chaos profile runs on the sharded
// engine, bites, and leaves a result, trace and audit that are byte-identical
// at 1, 2, 4 and 8 shards. A profile that does not exist is refused by name.
func TestPDESChaosProfiles(t *testing.T) {
	spec := pdesSpec(t)
	clean := runArtifacts(t, spec)
	for _, name := range profiles.Names() {
		s := spec
		s.Chaos, s.ChaosSeed = name, 3
		base := runArtifacts(t, s)
		if bytes.Equal(base.result, clean.result) {
			t.Errorf("%s: sharded result identical to the clean run's", name)
		}
		for _, shards := range []int{2, 4, 8} {
			s.Shards = shards
			got := runArtifacts(t, s)
			if !bytes.Equal(got.result, base.result) {
				t.Errorf("%s, shards=%d: result differs from shards=1:\n%s\nvs\n%s", name, shards, got.result, base.result)
			}
			if !bytes.Equal(got.trace, base.trace) {
				t.Errorf("%s, shards=%d: Perfetto trace differs from shards=1 (%d vs %d bytes)", name, shards, len(got.trace), len(base.trace))
			}
			if !bytes.Equal(got.audit, base.audit) {
				t.Errorf("%s, shards=%d: selection audit differs from shards=1", name, shards)
			}
		}
	}
	spec.Chaos = "noisy-neighbor"
	if _, err := RunADCL(spec, "brute-force"); err == nil || !strings.Contains(err.Error(), `unknown chaos profile "noisy-neighbor"`) {
		t.Errorf("unknown profile on shards: err = %v, want it refused by name", err)
	}
}

// TestPDESSpeculative: a speculative run on the sharded world commits a
// winner, and its whole result — audit samples, candidate durations, the
// committed loop — is identical at 1, 2 and 4 shards.
func TestPDESSpeculative(t *testing.T) {
	spec := pdesSpec(t)
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
