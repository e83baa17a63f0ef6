// Package chaos is the deterministic fault & noise injection layer: a
// seeded source of environmental adversity threaded through the simulator
// stack (sim engine time base, netmodel links, mpi compute phases). It
// exists because the paper's runtime selection only matters on noisy
// machines — ADCL's outlier-filtered scores (§III) are designed to pick
// winners despite OS jitter, congestion and skew, and a perfectly clean
// simulation never exercises them against adversity.
//
// Everything here is driven by PCG-seeded streams (math/rand/v2), so one
// (profile, seed) pair reproduces a byte-identical virtual timeline: the
// same transfers see the same degradations, the same compute phases absorb
// the same detours, and sweeps/traces are regression-testable artifacts.
//
// The injector is composable from independent concerns:
//
//   - per-rank OS noise: relative jitter plus "detour" events (an OS daemon
//     stealing a fixed slice of CPU with some probability per compute call);
//   - link degradation: static latency/bandwidth factors on inter-node
//     transfers, plus exponential per-message delivery jitter drawn from
//     the sending rank's stream;
//   - congestion bursts: randomly timed windows during which effective
//     bandwidth collapses (a neighbor job hammering the shared switch);
//   - slow-NIC nodes: a deterministic subset of nodes whose transfers run at
//     a fraction of nominal bandwidth (failing transceiver, misnegotiated
//     link);
//   - regime shifts: piecewise overrides applied from an absolute virtual
//     time onward (the job landing on a busier switch at t=T), the drift
//     the adaptive re-tuner in internal/core chases.
//
// Invariant: chaos perturbs *timing only*. It never drops, reorders within
// a flow, or corrupts a message, so any collective run under chaos must
// produce bit-identical payloads to a clean run (the nbc conformance suite
// pins this).
package chaos

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// OSNoise is the one model of OS noise on application compute phases: a
// phase of d seconds takes d·(1+|N(0,1)|·NoiseRel), plus DetourTime seconds
// when an OS daemon steals the CPU, which it does with probability DetourProb
// per phase. Two callers apply it, each from its own per-rank stream: a
// platform preset (platform.Platform.Noise) and a chaos profile. The zero
// model draws nothing and leaves every phase as it is.
type OSNoise struct {
	NoiseRel   float64 `json:"noise_rel,omitempty"`   // relative jitter: d *= 1 + |N(0,1)|*NoiseRel
	DetourProb float64 `json:"detour_prob,omitempty"` // probability per compute call of an OS detour
	DetourTime float64 `json:"detour_time,omitempty"` // CPU seconds one detour steals
}

// Source is the stream OSNoise draws from; *rand.Rand of math/rand and of
// math/rand/v2 both are one.
type Source interface {
	NormFloat64() float64
	Float64() float64
}

// Draws reports whether the model draws from its stream at all; a model that
// does not leaves every phase unchanged.
func (m OSNoise) Draws() bool { return m.NoiseRel > 0 || m.DetourProb > 0 }

// Apply perturbs a compute phase of d seconds with draws from r: one normal
// draw if NoiseRel > 0, then one uniform draw if DetourProb > 0. The result
// is >= d.
func (m OSNoise) Apply(r Source, d float64) float64 {
	if m.NoiseRel > 0 {
		d *= 1 + math.Abs(r.NormFloat64())*m.NoiseRel
	}
	if m.DetourProb > 0 && r.Float64() < m.DetourProb {
		d += m.DetourTime
	}
	return d
}

// Profile declares one named adversity configuration. The zero value of any
// field disables that concern; factor fields interpret 0 as "1.0" so partial
// literals stay readable. Profiles are plain data — JSON-serializable, and
// identified by Name in result fingerprints and history tags.
type Profile struct {
	Name string `json:"name"`

	// Per-rank OS noise, applied to application compute phases. Embedded, so
	// its fields serialize as the profile's own.
	OSNoise

	// Static link degradation for inter-node transfers.
	LatencyFactor   float64 `json:"latency_factor,omitempty"`   // multiplies wire latency (0, or >= 1: never faster)
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"` // multiplies bandwidth (<= 1 degrades)
	JitterMean      float64 `json:"jitter_mean,omitempty"`      // mean of exponential per-message delivery jitter

	// Congestion bursts: windows of collapsed bandwidth with random onset
	// and length (both uniform in [0.5,1.5] of their nominal value).
	BurstEvery    float64 `json:"burst_every,omitempty"`     // nominal gap between burst onsets (0 = no bursts)
	BurstLen      float64 `json:"burst_len,omitempty"`       // nominal burst duration
	BurstBWFactor float64 `json:"burst_bw_factor,omitempty"` // bandwidth multiplier inside a burst

	// Slow-NIC nodes: a seeded subset of nodes whose transfers degrade.
	SlowNodeFrac     float64 `json:"slow_node_frac,omitempty"`      // fraction of nodes affected
	SlowNodeBWFactor float64 `json:"slow_node_bw_factor,omitempty"` // bandwidth multiplier for their flows

	// Regime shifts, in ascending At order: from each shift's virtual time
	// onward its non-zero factors replace the profile's static ones.
	Shifts []Shift `json:"shifts,omitempty"`
}

// Shift is one piecewise regime change: from virtual time At onward, the
// non-zero factors override the profile's static link factors.
type Shift struct {
	At              float64 `json:"at"`
	LatencyFactor   float64 `json:"latency_factor,omitempty"`
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"`
}

// Validate reports a descriptive error for nonsensical profiles.
func (p *Profile) Validate() error {
	switch {
	case p.NoiseRel < 0 || p.DetourTime < 0 || p.JitterMean < 0:
		return fmt.Errorf("chaos %q: noise magnitudes must be non-negative", p.Name)
	case p.DetourProb < 0 || p.DetourProb > 1:
		return fmt.Errorf("chaos %q: DetourProb must be in [0,1]", p.Name)
	case p.LatencyFactor < 0 || p.BandwidthFactor < 0 || p.BurstBWFactor < 0 || p.SlowNodeBWFactor < 0:
		return fmt.Errorf("chaos %q: factors must be non-negative (0 means 1.0)", p.Name)
	case p.BurstEvery < 0 || p.BurstLen < 0:
		return fmt.Errorf("chaos %q: burst timing must be non-negative", p.Name)
	case p.BurstEvery > 0 && p.BurstLen <= 0:
		return fmt.Errorf("chaos %q: bursts need a positive BurstLen", p.Name)
	case p.SlowNodeFrac < 0 || p.SlowNodeFrac > 1:
		return fmt.Errorf("chaos %q: SlowNodeFrac must be in [0,1]", p.Name)
	case p.LatencyFactor > 0 && p.LatencyFactor < 1: // a faster wire would undercut the PDES lookahead
		return fmt.Errorf("chaos %q: LatencyFactor %g would make the wire faster (want 0 or >= 1)", p.Name, p.LatencyFactor)
	}
	if !sort.SliceIsSorted(p.Shifts, func(i, j int) bool { return p.Shifts[i].At < p.Shifts[j].At }) {
		return fmt.Errorf("chaos %q: shifts must be in ascending At order", p.Name)
	}
	for _, s := range p.Shifts {
		if s.At < 0 || s.LatencyFactor < 0 || s.BandwidthFactor < 0 {
			return fmt.Errorf("chaos %q: shift fields must be non-negative", p.Name)
		}
		if s.LatencyFactor > 0 && s.LatencyFactor < 1 {
			return fmt.Errorf("chaos %q: shift at %g: LatencyFactor %g would make the wire faster (want 0 or >= 1)", p.Name, s.At, s.LatencyFactor)
		}
	}
	return nil
}

// factor maps the "0 means 1.0" convention.
func factor(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}

// Injector is the per-run instantiation of a profile: seeded streams plus
// the burst/shift state machines. One injector serves one simulated world, or
// one shard of a sharded world: every shard builds its own from the same
// (profile, seed), and they agree because a rank's draws come from that
// rank's own streams and the burst and shift schedules are pure functions of
// virtual time. Its state advances with its engine's (monotonic) virtual time.
//
// All methods are called from engine context (the netmodel and mpi layers),
// which serializes them — the injector needs no locking.
type Injector struct {
	prof Profile

	compute []stream // one OS-noise stream per rank
	link    []stream // one delivery-jitter stream per sending rank
	burst   stream   // burst-schedule stream

	slow []bool // per node: degraded NIC

	shiftIdx   int // last shift whose At has passed (-1: none yet)
	burstStart float64
	burstEnd   float64
	nextBurst  float64
}

// stream is a PCG-seeded generator that keeps its source, because *rand.Rand
// cannot export it: clone serializes the source to give a forked world a
// stream positioned exactly where the parent's is.
type stream struct {
	*rand.Rand
	src *rand.PCG
}

// pcg derives an independent deterministic stream from (seed, lane).
func pcg(seed int64, lane uint64) stream {
	src := rand.NewPCG(uint64(seed)*0x9E3779B97F4A7C15+lane, lane*0xDA942042E4DD58B5+0x6368616F73)
	return stream{rand.New(src), src}
}

// perRank derives one stream per rank, rank r's from lane base+r.
func perRank(seed int64, base uint64, ranks int) []stream {
	out := make([]stream, ranks)
	for r := range out {
		out[r] = pcg(seed, base+uint64(r))
	}
	return out
}

// NewInjector instantiates a profile for a world of `ranks` ranks on
// `nodes` nodes, fully determined by seed.
func NewInjector(p Profile, seed int64, ranks, nodes int) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ranks < 1 || nodes < 1 {
		return nil, fmt.Errorf("chaos: need at least one rank and one node")
	}
	in := &Injector{prof: p, shiftIdx: -1}
	in.compute, in.link, in.burst = perRank(seed, 1000, ranks), perRank(seed, 1<<32, ranks), pcg(seed, 2)
	if p.BurstEvery > 0 {
		in.nextBurst = p.BurstEvery * (0.5 + in.burst.Float64())
		in.burstStart = math.Inf(1)
		in.burstEnd = math.Inf(1)
	}
	in.slow = make([]bool, nodes)
	if p.SlowNodeFrac > 0 {
		k := int(math.Round(p.SlowNodeFrac * float64(nodes)))
		if k < 1 {
			k = 1
		}
		if k > nodes {
			k = nodes
		}
		perm := pcg(seed, 3).Perm(nodes)
		for _, nd := range perm[:k] {
			in.slow[nd] = true
		}
	}
	return in, nil
}

// clone duplicates the stream mid-stream via its source's binary state.
func (s stream) clone() stream {
	b, err := s.src.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("chaos: PCG state export failed: %v", err))
	}
	cp := &rand.PCG{}
	if err := cp.UnmarshalBinary(b); err != nil {
		panic(fmt.Sprintf("chaos: PCG state import failed: %v", err))
	}
	return stream{rand.New(cp), cp}
}

// cloneAll clones every stream of a per-rank set.
func cloneAll(ss []stream) []stream {
	out := make([]stream, len(ss))
	for r, s := range ss {
		out[r] = s.clone()
	}
	return out
}

// Clone returns a detached injector positioned exactly where the receiver
// is: every noise stream continues with the identical values, and the
// burst/shift state machines carry over. Clone does not mutate
// the receiver, so one parent can be cloned once per fork and each clone
// serves exactly one forked world.
func (in *Injector) Clone() *Injector {
	cp := *in
	cp.compute, cp.link, cp.burst = cloneAll(in.compute), cloneAll(in.link), in.burst.clone()
	cp.slow = append([]bool(nil), in.slow...)
	return &cp
}

// SlowNode reports whether node nd has a degraded NIC under this injector.
func (in *Injector) SlowNode(nd int) bool { return nd >= 0 && nd < len(in.slow) && in.slow[nd] }

// ComputeNoise perturbs a compute phase of rank `rank` with the profile's OS
// noise, drawn from the rank's own stream. The result is >= d.
func (in *Injector) ComputeNoise(rank int, d float64) float64 {
	return in.prof.OSNoise.Apply(in.compute[rank].Rand, d)
}

// advanceBursts rolls the burst state machine forward to virtual time now.
// Onsets and lengths are drawn lazily in time order, so the schedule is a
// pure function of (profile, seed) regardless of how often it is queried.
func (in *Injector) advanceBursts(now float64) {
	for now >= in.nextBurst {
		in.burstStart = in.nextBurst
		in.burstEnd = in.burstStart + in.prof.BurstLen*(0.5+in.burst.Float64())
		in.nextBurst = in.burstEnd + in.prof.BurstEvery*(0.5+in.burst.Float64())
	}
}

// activeShift returns the shift in force at time now, or nil.
func (in *Injector) activeShift(now float64) *Shift {
	for in.shiftIdx+1 < len(in.prof.Shifts) && now >= in.prof.Shifts[in.shiftIdx+1].At {
		in.shiftIdx++
	}
	if in.shiftIdx < 0 {
		return nil
	}
	return &in.prof.Shifts[in.shiftIdx]
}

// Wire returns the (latencyFactor, bandwidthFactor) pair in force for an
// inter-node transfer between nodes a and b at virtual time now. Both are
// 1.0 under a zero profile. now must be non-decreasing across calls, which
// engine-event context guarantees.
func (in *Injector) Wire(now float64, a, b int) (latF, bwF float64) {
	latF = factor(in.prof.LatencyFactor)
	bwF = factor(in.prof.BandwidthFactor)
	if s := in.activeShift(now); s != nil {
		if s.LatencyFactor > 0 {
			latF = s.LatencyFactor
		}
		if s.BandwidthFactor > 0 {
			bwF = s.BandwidthFactor
		}
	}
	if in.prof.BurstEvery > 0 {
		in.advanceBursts(now)
		if now >= in.burstStart && now < in.burstEnd {
			bwF *= factor(in.prof.BurstBWFactor)
		}
	}
	if in.SlowNode(a) || in.SlowNode(b) {
		bwF *= factor(in.prof.SlowNodeBWFactor)
	}
	return latF, bwF
}

// DeliveryJitter draws the extra delivery delay of one inter-node message
// sent by rank src (exponential with mean JitterMean; 0 when the profile has
// no jitter). Each sending rank has its own stream, so a rank's draws depend
// only on its own sends, not on how sends of different ranks interleave.
func (in *Injector) DeliveryJitter(src int) float64 {
	if in.prof.JitterMean <= 0 {
		return 0
	}
	return in.link[src].ExpFloat64() * in.prof.JitterMean
}
