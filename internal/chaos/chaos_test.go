package chaos

import (
	"math"
	rand1 "math/rand"
	"math/rand/v2"
	"testing"
)

func noisy() Profile {
	return Profile{
		Name:       "t",
		OSNoise:    OSNoise{NoiseRel: 0.02, DetourProb: 0.2, DetourTime: 1e-3},
		JitterMean: 5e-6,
	}
}

// Same (profile, seed) must reproduce identical draw sequences; a different
// seed must diverge. This is the root determinism contract everything above
// (sweep summaries, traces) inherits.
func TestInjectorDeterminism(t *testing.T) {
	mk := func(seed int64) *Injector {
		in, err := NewInjector(noisy(), seed, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := mk(7), mk(7), mk(8)
	sameAll, diffAny := true, false
	for i := 0; i < 200; i++ {
		rank := i % 4
		av := a.ComputeNoise(rank, 1e-3)
		if av != b.ComputeNoise(rank, 1e-3) {
			sameAll = false
		}
		if av != c.ComputeNoise(rank, 1e-3) {
			diffAny = true
		}
		aj := a.DeliveryJitter(rank)
		if aj != b.DeliveryJitter(rank) {
			sameAll = false
		}
		if aj != c.DeliveryJitter(rank) {
			diffAny = true
		}
	}
	if !sameAll {
		t.Fatal("same seed produced diverging draws")
	}
	if !diffAny {
		t.Fatal("different seeds produced identical draws")
	}
}

// Per-rank streams must be independent: draws on rank 0 may not perturb the
// sequence rank 1 sees (otherwise rank-local call ordering would leak
// nondeterminism across ranks, and shards of a sharded world, each with its
// own injector, would disagree).
func TestPerRankStreamsIndependent(t *testing.T) {
	p := noisy()
	a, _ := NewInjector(p, 1, 2, 1)
	b, _ := NewInjector(p, 1, 2, 1)
	// Interleave extra rank-0 draws on a only.
	for i := 0; i < 50; i++ {
		a.ComputeNoise(0, 1e-3)
		a.DeliveryJitter(0)
	}
	for i := 0; i < 50; i++ {
		if a.ComputeNoise(1, 1e-3) != b.ComputeNoise(1, 1e-3) {
			t.Fatal("rank-1 compute stream perturbed by rank-0 draws")
		}
		if a.DeliveryJitter(1) != b.DeliveryJitter(1) {
			t.Fatal("rank-1 jitter stream perturbed by rank-0 draws")
		}
	}
}

func TestComputeNoiseNeverShrinks(t *testing.T) {
	in, _ := NewInjector(noisy(), 3, 2, 1)
	detours := 0
	for i := 0; i < 1000; i++ {
		d := in.ComputeNoise(i%2, 1e-3)
		if d < 1e-3 {
			t.Fatalf("compute noise shrank the phase: %g < 1e-3", d)
		}
		if d >= 2e-3 { // only a 1 ms detour doubles a 1 ms phase at 2 % jitter
			detours++
		}
	}
	if detours == 0 {
		t.Fatal("DetourProb=0.2 over 1000 draws produced no detours")
	}
}

// TestOSNoiseDraws pins the model both callers share: the draws it takes, in
// order, and the formula over them. A platform preset applies it to a
// math/rand stream, a chaos profile to a math/rand/v2 one.
func TestOSNoiseDraws(t *testing.T) {
	m := OSNoise{NoiseRel: 0.01, DetourProb: 0.5, DetourTime: 1e-3}
	type src struct {
		name string
		a, b Source // two streams seeded alike
	}
	for _, s := range []src{
		{"math/rand", rand1.New(rand1.NewSource(1)), rand1.New(rand1.NewSource(1))},
		{"math/rand/v2", rand.New(rand.NewPCG(1, 2)), rand.New(rand.NewPCG(1, 2))},
	} {
		for i := 0; i < 200; i++ {
			want := 1e-3 * (1 + math.Abs(s.b.NormFloat64())*m.NoiseRel)
			if s.b.Float64() < m.DetourProb {
				want += m.DetourTime
			}
			if got := m.Apply(s.a, 1e-3); got != want {
				t.Fatalf("%s draw %d: Apply = %g, want %g", s.name, i, got, want)
			}
		}
	}
	if (OSNoise{DetourTime: 1}).Draws() || !(OSNoise{NoiseRel: 1}).Draws() || !(OSNoise{DetourProb: 1}).Draws() {
		t.Error("Draws must hold exactly when NoiseRel or DetourProb is positive")
	}
	var zero OSNoise
	if got := zero.Apply(nil, 2e-3); got != 2e-3 {
		t.Errorf("zero model changed a phase: %g", got)
	}
}

func TestZeroProfileIsIdentity(t *testing.T) {
	in, err := NewInjector(Profile{}, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := in.ComputeNoise(0, 2e-3); d != 2e-3 {
		t.Fatalf("zero profile perturbed compute: %g", d)
	}
	lf, bf := in.Wire(0.5, 0, 1)
	if lf != 1 || bf != 1 {
		t.Fatalf("zero profile perturbed wire: %g %g", lf, bf)
	}
	if j := in.DeliveryJitter(0); j != 0 {
		t.Fatalf("zero profile jittered: %g", j)
	}
}

// A shift's factors must apply exactly from At onward, and override the
// profile's static factors rather than compose with them.
func TestRegimeShiftPiecewise(t *testing.T) {
	p := Profile{
		Name:            "shifty",
		LatencyFactor:   2,
		BandwidthFactor: 0.5,
		Shifts: []Shift{
			{At: 1.0, BandwidthFactor: 0.1},
			{At: 2.0, LatencyFactor: 8, BandwidthFactor: 0.05},
		},
	}
	in, err := NewInjector(p, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(now, wantL, wantB float64) {
		t.Helper()
		lf, bf := in.Wire(now, 0, 1)
		if lf != wantL || bf != wantB {
			t.Fatalf("Wire(%g) = (%g, %g), want (%g, %g)", now, lf, bf, wantL, wantB)
		}
	}
	check(0.0, 2, 0.5)
	check(0.999, 2, 0.5)
	check(1.0, 2, 0.1) // latency inherits static factor: shift's 0 means "keep"
	check(1.5, 2, 0.1)
	check(2.0, 8, 0.05)
	check(99, 8, 0.05)
}

// Burst windows: a profile with bursts must spend roughly BurstLen /
// (BurstEvery + BurstLen) of the time degraded, and the same seed must
// reproduce the identical window schedule.
func TestBurstSchedule(t *testing.T) {
	p := Profile{Name: "bursty", BurstEvery: 10e-3, BurstLen: 5e-3, BurstBWFactor: 0.25}
	degradedAt := func(seed int64) []bool {
		in, err := NewInjector(p, seed, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 0, 4000)
		for i := 0; i < 4000; i++ {
			_, bf := in.Wire(float64(i)*1e-4, 0, 1) // 0.4 s scan
			out = append(out, bf != 1)
		}
		return out
	}
	a, b := degradedAt(5), degradedAt(5)
	n := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different burst schedule")
		}
		if a[i] {
			n++
		}
	}
	frac := float64(n) / float64(len(a))
	if frac < 0.15 || frac > 0.55 {
		t.Fatalf("burst duty cycle %.2f outside [0.15, 0.55] (expect ~1/3)", frac)
	}
}

func TestSlowNodeSelection(t *testing.T) {
	p := Profile{Name: "slow", SlowNodeFrac: 0.25, SlowNodeBWFactor: 0.4}
	in, err := NewInjector(p, 11, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for nd := 0; nd < 8; nd++ {
		if in.SlowNode(nd) {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("SlowNodeFrac 0.25 of 8 nodes marked %d slow, want 2", n)
	}
	// Flows touching a slow node degrade; clean-to-clean flows do not.
	slow, clean := -1, -1
	for nd := 0; nd < 8; nd++ {
		if in.SlowNode(nd) && slow < 0 {
			slow = nd
		}
		if !in.SlowNode(nd) && clean < 0 {
			clean = nd
		}
	}
	if _, bf := in.Wire(0, slow, clean); bf != 0.4 {
		t.Fatalf("slow-node flow bw factor %g, want 0.4", bf)
	}
	clean2 := -1
	for nd := clean + 1; nd < 8; nd++ {
		if !in.SlowNode(nd) {
			clean2 = nd
			break
		}
	}
	if _, bf := in.Wire(0, clean, clean2); bf != 1 {
		t.Fatalf("clean flow bw factor %g, want 1", bf)
	}
}

func TestDeliveryJitterPositiveWithFiniteMean(t *testing.T) {
	p := Profile{Name: "j", JitterMean: 10e-6}
	in, _ := NewInjector(p, 2, 1, 1)
	sum := 0.0
	for i := 0; i < 5000; i++ {
		j := in.DeliveryJitter(0)
		if j < 0 || math.IsInf(j, 0) || math.IsNaN(j) {
			t.Fatalf("bad jitter draw %g", j)
		}
		sum += j
	}
	mean := sum / 5000
	if mean < 5e-6 || mean > 20e-6 {
		t.Fatalf("jitter sample mean %g far from configured 10e-6", mean)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	bad := []Profile{
		{Name: "neg-noise", OSNoise: OSNoise{NoiseRel: -1}},
		{Name: "prob", OSNoise: OSNoise{DetourProb: 1.5}},
		{Name: "neg-factor", BandwidthFactor: -2},
		{Name: "burst-no-len", BurstEvery: 1},
		{Name: "frac", SlowNodeFrac: 2},
		{Name: "unsorted", Shifts: []Shift{{At: 2}, {At: 1}}},
		{Name: "neg-shift", Shifts: []Shift{{At: -1}}},
		// Chaos never makes a wire faster, statically or after a shift.
		{Name: "fast-wire", LatencyFactor: 0.5},
		{Name: "fast-wire-barely", LatencyFactor: 0.999},
		{Name: "fast-shift", Shifts: []Shift{{At: 1, LatencyFactor: 0.25}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %q validated but should not", p.Name)
		}
		if _, err := NewInjector(p, 1, 1, 1); err == nil {
			t.Errorf("NewInjector accepted invalid profile %q", p.Name)
		}
	}
	// 0 still means 1, and 1 itself is the clean wire.
	for _, p := range []Profile{
		{Name: "zero", Shifts: []Shift{{At: 1, BandwidthFactor: 0.5}}},
		{Name: "one", LatencyFactor: 1, Shifts: []Shift{{At: 1, LatencyFactor: 1}}},
		{Name: "slower", LatencyFactor: 4, Shifts: []Shift{{At: 1, LatencyFactor: 1.5}}},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q refused: %v", p.Name, err)
		}
	}
}

// TestInjectorClone pins the fork contract: a clone continues every noise
// stream and state machine with exactly the values the parent would have
// produced, without the two coupling afterwards.
func TestInjectorClone(t *testing.T) {
	prof := Profile{
		Name: "clone-test", OSNoise: OSNoise{NoiseRel: 0.1, DetourProb: 0.05, DetourTime: 1e-4},
		JitterMean: 1e-6, BurstEvery: 1e-3, BurstLen: 2e-4, BurstBWFactor: 0.25,
		SlowNodeFrac: 0.25, SlowNodeBWFactor: 0.5,
		Shifts: []Shift{{At: 0.5, LatencyFactor: 2}},
	}
	in, err := NewInjector(prof, 11, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Advance the parent mid-stream so the clone has state to carry.
	now := 0.0
	for i := 0; i < 500; i++ {
		now += 1e-5
		in.ComputeNoise(i%4, 1e-5)
		in.Wire(now, 0, 1)
		in.DeliveryJitter(i % 4)
	}
	cl := in.Clone()
	for i := 0; i < 500; i++ {
		now += 1e-5
		r := i % 4
		if a, b := in.ComputeNoise(r, 1e-5), cl.ComputeNoise(r, 1e-5); a != b {
			t.Fatalf("step %d: ComputeNoise diverged: %v != %v", i, a, b)
		}
		al, ab := in.Wire(now, 0, 1)
		bl, bb := cl.Wire(now, 0, 1)
		if al != bl || ab != bb {
			t.Fatalf("step %d: Wire diverged: (%v,%v) != (%v,%v)", i, al, ab, bl, bb)
		}
		if a, b := in.DeliveryJitter(r), cl.DeliveryJitter(r); a != b {
			t.Fatalf("step %d: DeliveryJitter diverged: %v != %v", i, a, b)
		}
	}
}
