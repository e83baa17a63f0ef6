package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"nbctune/internal/core"
	"nbctune/internal/fft"
	"nbctune/internal/platform"
)

// Payload elision (mpi.Buf virtual descriptors) must be timing-neutral: a
// scenario run on real, verified payloads has to produce byte-identical
// virtual-time results to the default length-only run. These tests pin the
// refactor's core invariant at the two benchmark entry points.

func TestMicroDataModeTimingNeutral(t *testing.T) {
	for _, op := range []string{OpIalltoall, OpIbcast} {
		spec := smallSpec(t)
		spec.Op = op
		virt, err := RunVerificationOpts(spec, RunOptions{}, "brute-force")
		if err != nil {
			t.Fatal(err)
		}
		spec.Data = true
		real, err := RunVerificationOpts(spec, RunOptions{}, "brute-force")
		if err != nil {
			t.Fatal(err)
		}
		// Specs differ (Data flag), so compare the measurements, not the
		// encoded structs.
		if len(virt.Fixed) != len(real.Fixed) {
			t.Fatalf("%s: implementation counts differ", op)
		}
		for i := range virt.Fixed {
			if virt.Fixed[i].Total != real.Fixed[i].Total {
				t.Fatalf("%s: fixed %s: virtual %g != data %g",
					op, virt.Fixed[i].Impl, virt.Fixed[i].Total, real.Fixed[i].Total)
			}
		}
		for i := range virt.ADCL {
			if virt.ADCL[i].Total != real.ADCL[i].Total || virt.ADCL[i].Winner != real.ADCL[i].Winner {
				t.Fatalf("%s: ADCL run differs between data modes", op)
			}
		}
	}
}

func TestMicroDataModeVerifiesPayloads(t *testing.T) {
	// Data mode actually moves and checks bytes: a run must succeed (the
	// deterministic pattern survives every algorithm), and the summary JSON
	// it contributes to must be unaffected by the Data flag (omitempty).
	spec := smallSpec(t)
	spec.Data = true
	spec.Iterations = 8
	if _, err := RunVerificationOpts(spec, RunOptions{}, "brute-force"); err != nil {
		t.Fatalf("data-mode run failed: %v", err)
	}
	plain := spec
	plain.Data = false
	if VerificationKey(spec, nil) == VerificationKey(plain, nil) {
		t.Fatal("Data flag must be part of the cache fingerprint")
	}
}

// TestDataModeFollowsTheCatalogue: Data mode accepts exactly the ops that
// declare a data pattern, and for those every implementation delivers the
// pattern on odd and even, power-of-two and other communicator sizes.
func TestDataModeFollowsTheCatalogue(t *testing.T) {
	for _, name := range core.OpNames() {
		op, err := core.OpByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := smallSpec(t)
		spec.Op, spec.MsgSize, spec.Data = name, 4800, true
		if name == "neighborhood" {
			spec.Procs = 9
		}
		if err := spec.validate(); (err == nil) != (op.Pattern != nil) {
			t.Errorf("%s declares pattern %v, Data mode says: %v", name, op.Pattern, err)
		}
		if op.Pattern == nil {
			continue
		}
		for _, np := range []int{2, 3, 4, 5} {
			spec.Procs = np
			spec.Iterations = len(spec.FunctionNames()) + 1
			spec.EvalsPerFn = 1 // brute force then runs every implementation once
			if _, err := RunADCL(spec, "brute-force"); err != nil {
				t.Errorf("%s on %d ranks: %v", name, np, err)
			}
		}
	}
}

func TestFFTDataModeTimingNeutral(t *testing.T) {
	plat, err := platform.ByName("whale")
	if err != nil {
		t.Fatal(err)
	}
	spec := FFTSpec{
		Platform: plat, Procs: 8, N: 32, Pattern: fft.Tiled,
		Iterations: 6, Seed: 19, EvalsPerFn: 2,
	}
	virt, err := RunFFT(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Data = true
	real, err := RunFFT(spec)
	if err != nil {
		t.Fatal(err)
	}
	if virt.Total != real.Total || virt.PerIter != real.PerIter || virt.Winner != real.Winner {
		t.Fatalf("FFT data mode not timing-neutral: virtual %+v vs data %+v", virt, real)
	}
}

// TestTraceBytesNeutralAcrossDataMode byte-compares the exported Perfetto
// timeline of a data-mode run against the default length-only run: payload
// elision must be invisible to the virtual-time schedule, span for span.
func TestTraceBytesNeutralAcrossDataMode(t *testing.T) {
	trace := func(spec MicroSpec) []byte {
		_, rec, err := runFixed(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	spec := smallSpec(t)
	spec.Observe = true
	virt := trace(spec)
	spec.Data = true
	real := trace(spec)
	if !bytes.Equal(virt, real) {
		t.Fatalf("Perfetto trace differs between data modes (%d vs %d bytes)", len(virt), len(real))
	}

	plat, err := platform.ByName("whale")
	if err != nil {
		t.Fatal(err)
	}
	fspec := FFTSpec{
		Platform: plat, Procs: 8, N: 32, Pattern: fft.Tiled,
		Iterations: 4, Seed: 7, EvalsPerFn: 2, Observe: true,
	}
	ftrace := func(spec FFTSpec) []byte {
		_, rec, err := runFFT(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fvirt := ftrace(fspec)
	fspec.Data = true
	freal := ftrace(fspec)
	if !bytes.Equal(fvirt, freal) {
		t.Fatalf("FFT Perfetto trace differs between data modes (%d vs %d bytes)", len(fvirt), len(freal))
	}
}

func TestSummaryBytesUnaffectedByDataFlagDefault(t *testing.T) {
	// The committed results/sweep_summary.json must stay byte-identical
	// across the refactor: default-mode specs (Data unset) have to serialize
	// exactly as before the field existed.
	spec := smallSpec(t)
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"Data"`)) {
		t.Fatalf("default spec serializes the Data field: %s", b)
	}
	fb, err := json.Marshal(FFTSpec{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(fb, []byte(`"Data"`)) {
		t.Fatalf("default FFT spec serializes the Data field: %s", fb)
	}
}
