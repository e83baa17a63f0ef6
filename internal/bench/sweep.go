package bench

import (
	"encoding/json"
	"fmt"

	"nbctune/internal/fft"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

// Sweeps: the paper's two aggregate claims.
//
//   - §IV-A: out of 324 verification runs, ADCL's brute-force search picked a
//     correct winner (within 5% of the best fixed implementation) in 90% of
//     the cases and the attribute heuristic in 92%.
//   - §IV-B: out of 393 FFT kernel tests, ADCL reduced execution time
//     compared to LibNBC in 74% of the cases, with improvements up to 40%
//     against the state of the art.

// VerificationScenarios builds the §IV-A scenario grid. fast=true trims the
// grid to something a laptop regenerates in minutes; fast=false approaches
// the paper's 324-run sweep.
func VerificationScenarios(fast bool) []MicroSpec {
	crill, _ := platform.ByName("crill")
	whale, _ := platform.ByName("whale")
	whaletcp, _ := platform.ByName("whale-tcp")

	type dim struct {
		plat  platform.Platform
		procs []int
	}
	var dims []dim
	var progress []int
	var extra int
	if fast {
		dims = []dim{{crill, []int{16}}, {whale, []int{16}}, {whaletcp, []int{8}}}
		progress = []int{1, 5}
		extra = 12
	} else {
		dims = []dim{{crill, []int{32, 64, 128}}, {whale, []int{32, 64}}, {whaletcp, []int{16, 32}}}
		progress = []int{1, 5, 25}
		extra = 20
	}
	const evals = 2
	// The loop must outlast the longest learning phase: brute force over the
	// 21-implementation Ibcast set consumes evals*21 iterations.
	itersFor := func(op string) int {
		if op == OpIbcast {
			return evals*21 + extra
		}
		return evals*3 + extra
	}
	var specs []MicroSpec
	seed := int64(100)
	for _, d := range dims {
		for _, np := range d.procs {
			for _, pc := range progress {
				// Ialltoall: 1KB and 128KB per pair (paper's sizes).
				for _, msg := range []int{1024, 128 * 1024} {
					seed++
					specs = append(specs, MicroSpec{
						Platform: d.plat, Procs: np, MsgSize: msg, Op: OpIalltoall,
						ComputePerIter: computeFor(msg), Iterations: itersFor(OpIalltoall),
						ProgressCalls: pc, Seed: seed, EvalsPerFn: evals,
					})
				}
				// Ibcast: 1KB and 2MB (paper's sizes).
				for _, msg := range []int{1024, 2 * 1024 * 1024} {
					seed++
					specs = append(specs, MicroSpec{
						Platform: d.plat, Procs: np, MsgSize: msg, Op: OpIbcast,
						ComputePerIter: computeFor(msg), Iterations: itersFor(OpIbcast),
						ProgressCalls: pc, Seed: seed, EvalsPerFn: evals,
					})
				}
			}
		}
	}
	return specs
}

// ScaleScenarios builds the E15 grid: the scalable function sets tuned on
// the BlueGene/P-style 16x16x16 torus (bgp-16k) at a small-communicator size
// inside the paper's regime (64 ranks) and at 4K ranks, where the O(n)
// algorithms collapse and the tuned winner flips. Block placement packs 4
// ranks per node so the torus broadcast's node-leader hierarchy and
// shared-memory fanout are exercised. fast=true caps the large points at
// 1K ranks for CI smoke runs; the committed E15 artifacts come from the
// full grid.
func ScaleScenarios(fast bool) []MicroSpec {
	bgp16k, _ := platform.ByName("bgp-16k")
	const evals = 2
	bcastNP, barrierNP, agNP := []int{64, 4096}, []int{64, 4096}, []int{64, 1024}
	bcastMsg := 256 * 1024
	if fast {
		bcastNP, barrierNP, agNP = []int{64, 1024}, []int{64, 1024}, []int{64, 256}
		bcastMsg = 128 * 1024
	}
	var specs []MicroSpec
	seed := int64(1500)
	for _, np := range bcastNP {
		seed++
		specs = append(specs, MicroSpec{
			Platform: bgp16k, Procs: np, MsgSize: bcastMsg, Op: OpIbcastScalable,
			ComputePerIter: computeFor(bcastMsg), Iterations: evals*9 + 6,
			ProgressCalls: 4, Seed: seed, EvalsPerFn: evals, Placement: platform.Block,
		})
	}
	for _, np := range agNP {
		seed++
		specs = append(specs, MicroSpec{
			Platform: bgp16k, Procs: np, MsgSize: 1024, Op: OpIallgatherScalable,
			ComputePerIter: computeFor(1024), Iterations: evals*3 + 6,
			ProgressCalls: 4, Seed: seed, EvalsPerFn: evals, Placement: platform.Block,
		})
	}
	for _, np := range barrierNP {
		seed++
		specs = append(specs, MicroSpec{
			Platform: bgp16k, Procs: np, MsgSize: 1, Op: OpIbarrier,
			ComputePerIter: 2e-4, Iterations: evals*2 + 6,
			ProgressCalls: 4, Seed: seed, EvalsPerFn: evals, Placement: platform.Block,
		})
	}
	return specs
}

// computeFor sizes the per-iteration compute phase so it is larger than or
// equal to the communication cost, as the paper's benchmark prescribes.
func computeFor(msgSize int) float64 {
	if msgSize <= 4096 {
		return 2e-3
	}
	return 5e-2
}

// SweepStats aggregates correct-decision counts per selector.
type SweepStats struct {
	Selectors []string
	Correct   map[string]int
	Total     int
	Runs      []*Verification
}

// Rate returns the correct-decision rate of a selector.
func (s *SweepStats) Rate(sel string) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Correct[sel]) / float64(s.Total)
}

// VerificationSweepOpts runs the §IV-A sweep on the experiment runner: one
// job per scenario, executed on opt.Workers workers with optional result
// caching. Results are aggregated in scenario order regardless of
// completion order, so the statistics (and any summary rendered from them)
// are identical for every worker count.
func VerificationSweepOpts(specs []MicroSpec, selectors []string, opt RunOptions) (*SweepStats, error) {
	if len(selectors) == 0 {
		selectors = []string{"brute-force", "attr-heuristic"}
	}
	// Each scenario's verification runs sequentially inside its job.
	inner := RunOptions{Workers: 1}
	jobs := make([]runner.Job, len(specs))
	for i, spec := range specs {
		spec := spec
		jobs[i] = runner.Job{
			Label: spec.String(),
			Key:   VerificationKey(spec, selectors),
			Run:   func() (any, error) { return RunVerificationOpts(spec, inner, selectors...) },
			Note:  verificationNote,
		}
	}
	rs, err := runner.Run(jobs, opt)
	if err != nil {
		return nil, err
	}
	st := &SweepStats{Selectors: selectors, Correct: map[string]int{}}
	for _, r := range rs {
		v := new(Verification)
		if err := r.Decode(v); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", r.Index, err)
		}
		st.Runs = append(st.Runs, v)
		st.Total++
		for j, sel := range selectors {
			if v.Correct(j) {
				st.Correct[sel]++
			}
		}
	}
	return st, nil
}

// verificationNote annotates a progress line with the job's simulated
// (virtual) seconds and the best fixed implementation.
func verificationNote(raw json.RawMessage) string {
	var v Verification
	if json.Unmarshal(raw, &v) != nil || len(v.Fixed) == 0 {
		return ""
	}
	var virt float64
	for _, r := range v.Fixed {
		virt += r.Total
	}
	for _, r := range v.ADCL {
		virt += r.Total
	}
	return fmt.Sprintf("virt=%.2fs best=%s", virt, v.Fixed[v.Best].Impl)
}

// FFTScenarios builds the §IV-B scenario grid.
func FFTScenarios(fast bool) []FFTSpec {
	crill, _ := platform.ByName("crill")
	whale, _ := platform.ByName("whale")

	// The grid mirrors the paper's production regime (160-500 ranks packed
	// 10-31 per node): block placement concentrates ranks per node, and the
	// per-pair blocks at N=256 land in the regimes where the linear
	// algorithm is no longer a safe default.
	var procs []int
	var pats []fft.Pattern
	var ppts []int
	var iters int
	if fast {
		procs = []int{32, 64}
		pats = []fft.Pattern{fft.Pipelined, fft.Tiled}
		ppts = []int{1}
		iters = 30
	} else {
		procs = []int{32, 64, 128}
		pats = fft.Patterns
		ppts = []int{1, 4}
		iters = 60
	}
	var specs []FFTSpec
	seed := int64(500)
	for _, plat := range []platform.Platform{crill, whale} {
		for _, np := range procs {
			for _, pat := range pats {
				for _, ppt := range ppts {
					seed++
					specs = append(specs, FFTSpec{
						Platform: plat, Procs: np, N: 256, Pattern: pat,
						Iterations: iters, Seed: seed, EvalsPerFn: 2,
						Placement: platform.Block, ProgressPerTile: ppt,
					})
				}
			}
		}
	}
	return specs
}

// FFTSweepStats aggregates the ADCL-vs-LibNBC comparison.
type FFTSweepStats struct {
	Total          int
	ADCLFaster     int     // ADCL total < LibNBC total
	OnPar          int     // within 2% either way
	MaxImprovement float64 // best relative gain vs LibNBC
	Rows           [][2]FFTResult
}

// FasterRate returns the fraction of tests where ADCL beat LibNBC.
func (s *FFTSweepStats) FasterRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.ADCLFaster) / float64(s.Total)
}

// FFTSweepOpts runs the §IV-B sweep on the experiment runner: one job per
// (scenario, flavor), LibNBC and ADCL.
func FFTSweepOpts(specs []FFTSpec, opt RunOptions) (*FFTSweepStats, error) {
	rows, err := fftMatrix(specs, []fft.Flavor{fft.FlavorNBC, fft.FlavorADCL}, opt, nil)
	if err != nil {
		return nil, err
	}
	st := &FFTSweepStats{}
	for _, rs := range rows {
		nbcR, adclR := rs[0], rs[1]
		st.Rows = append(st.Rows, [2]FFTResult{nbcR, adclR})
		st.Total++
		if adclR.Total < nbcR.Total {
			st.ADCLFaster++
		}
		rel := (nbcR.Total - adclR.Total) / nbcR.Total
		if rel > st.MaxImprovement {
			st.MaxImprovement = rel
		}
		if rel > -0.02 && rel < 0.02 {
			st.OnPar++
		}
	}
	return st, nil
}
