package guideline

import (
	"fmt"

	"nbctune/internal/core"
	"nbctune/internal/mpi"
	"nbctune/internal/platform"
	"nbctune/internal/runner"
)

// Scenario is one cell of the evaluation matrix: an operation on a simulated
// machine at a payload size, optionally under a chaos profile. Size follows
// the per-operation convention of cmd/tune: total bytes for ibcast, bytes
// per rank pair for ialltoall, bytes per rank block for iallgather, vector
// bytes for ireduce/iallreduce.
type Scenario struct {
	Op        string
	Platform  string
	Procs     int
	Size      int
	Chaos     string `json:",omitempty"`
	ChaosSeed int64  `json:",omitempty"`
	Seed      int64
	// Reps is the number of timed repetitions per candidate; every verdict
	// statistic is computed over Reps paired samples.
	Reps int
	// Evals is how many of the first repetitions the simulated tuner uses to
	// commit a winner for tuned-table leaves (ADCL's evals-per-function).
	Evals int
}

func (s Scenario) String() string {
	chaos := s.Chaos
	if chaos == "" {
		chaos = "clean"
	}
	return fmt.Sprintf("%s/%s np=%d size=%dB %s", s.Op, s.Platform, s.Procs, s.Size, chaos)
}

// env returns the scenario with the leaf-independent fields only: two
// scenarios that differ just in Op and Size share leaf measurements (a leaf
// carries its own operation and resolved size).
func (s Scenario) env() Scenario {
	s.Op, s.Size = "", 0
	return s
}

// Leaf is one measurable expression leaf: either the tuned table of Op
// (Mock == "") or the named composed mock, at a resolved payload size.
type Leaf struct {
	Op   string
	Mock string `json:",omitempty"`
	Size int
}

// leafOf resolves an expression leaf against a scenario.
func leafOf(e Expr, sc Scenario) Leaf {
	size := sc.Size
	if e.Scale > 1 {
		size *= e.Scale
	}
	if e.Mock != "" {
		def, _ := core.MockByName(e.Mock)
		return Leaf{Op: def.Op, Mock: e.Mock, Size: size}
	}
	return Leaf{Op: e.Term, Size: size}
}

// leavesOf collects every measurable leaf of the expression at a scenario,
// deduplicated, in first-occurrence order.
func leavesOf(e Expr, sc Scenario, out []Leaf) []Leaf {
	if len(e.Seq) > 0 {
		for _, p := range e.Seq {
			out = leavesOf(p, sc, out)
		}
		return out
	}
	l := leafOf(e, sc)
	for _, have := range out {
		if have == l {
			return out
		}
	}
	return append(out, l)
}

// evalExpr computes the per-repetition sample vector of an expression from
// leaf measurements: leaves look up their samples, Seq sums elementwise
// (sequential composition: per-repetition times add).
func evalExpr(e Expr, sc Scenario, lookup func(Leaf) ([]float64, error)) ([]float64, error) {
	if len(e.Seq) == 0 {
		return lookup(leafOf(e, sc))
	}
	var sum []float64
	for _, p := range e.Seq {
		s, err := evalExpr(p, sc, lookup)
		if err != nil {
			return nil, err
		}
		if sum == nil {
			sum = append([]float64(nil), s...)
			continue
		}
		if len(s) < len(sum) {
			sum = sum[:len(s)]
		}
		for i := range sum {
			sum[i] += s[i]
		}
	}
	return sum, nil
}

// winnersOf renders the tuned winners an expression's term leaves committed,
// joined with " + " in leaf order ("" when the expression has no term leaf).
func winnersOf(e Expr, sc Scenario, winner func(Leaf) string) string {
	out := ""
	for _, l := range leavesOf(e, sc, nil) {
		if l.Mock != "" {
			continue
		}
		if w := winner(l); w != "" {
			if out != "" {
				out += " + "
			}
			out += w
		}
	}
	return out
}

// LeafResult is the measurement of one leaf on one scenario environment.
type LeafResult struct {
	Leaf Leaf
	// Samples is the per-repetition time (seconds) of the leaf: the tuned
	// winner's repetitions for a term leaf, the mock's for a mock leaf.
	Samples []float64
	// Winner is the implementation the simulated tuner committed (term
	// leaves; the mock's own name for mock leaves).
	Winner string
	// Candidates is the number of implementations measured.
	Candidates int
}

// LeafKey is the content address of a leaf measurement for the runner cache.
// Its kind tag keeps leaves apart from the bench harness's keys.
func LeafKey(sc Scenario, l Leaf) (string, error) {
	return runner.Fingerprint("guideline-leaf", sc.env(), l)
}

// leafSet builds what a leaf measures — the tuned function set of its
// operation, or its mock as a single-candidate set — through the op
// catalogue's sizing conventions (virtual payloads: the guideline engine
// compares timings).
func leafSet(c *mpi.Comm, l Leaf) (*core.FunctionSet, error) {
	if l.Mock != "" {
		return core.MockSet(c, l.Mock, l.Size)
	}
	return opSet(c, l.Op, l.Size, nil)
}

// opSet builds the tuned function set for an operation at a payload size,
// optionally extended with guideline mocks.
func opSet(c *mpi.Comm, op string, size int, mocks []string) (*core.FunctionSet, error) {
	o, err := core.OpByName(op)
	if err != nil {
		return nil, fmt.Errorf("guideline: %w", err)
	}
	return o.Set(c, size, mocks)
}

// world assembles the scenario's simulated machine (platform.Assemble, with
// the scenario's chaos profile attached) on the sequential engine.
func (s Scenario) world() (runFn func(prog func(c *mpi.Comm)), err error) {
	pl, err := platform.ByName(s.Platform)
	if err != nil {
		return nil, err
	}
	w, err := pl.Assemble(s.Procs, s.Seed, platform.Cyclic, s.Chaos, s.ChaosSeed, false, 0)
	if err != nil {
		return nil, err
	}
	return func(prog func(c *mpi.Comm)) {
		w.Start(prog)
		w.Run()
	}, nil
}

// MeasureLeaf times one leaf on the scenario's machine. Every candidate of
// the leaf's set runs Reps repetitions in round-robin order (rep-major, so
// drifting chaos hits all candidates alike); a repetition is barrier-to-
// barrier virtual time on rank 0. Term leaves commit a winner the way the
// tuner would — the best robust score over the first Evals repetitions —
// and report that winner's full repetition vector.
func MeasureLeaf(sc Scenario, l Leaf) (LeafResult, error) {
	if sc.Reps < 1 || sc.Evals < 1 {
		return LeafResult{}, fmt.Errorf("guideline: scenario needs Reps >= 1 and Evals >= 1")
	}
	run, err := sc.world()
	if err != nil {
		return LeafResult{}, err
	}
	var (
		samples  [][]float64
		names    []string
		buildErr error
	)
	run(func(c *mpi.Comm) {
		fs, err := leafSet(c, l)
		if err != nil {
			if c.Rank() == 0 {
				buildErr = err
			}
			return
		}
		me := c.Rank()
		if me == 0 {
			samples = make([][]float64, len(fs.Fns))
			names = fs.FunctionNames()
		}
		for rep := 0; rep < sc.Reps; rep++ {
			for fi, fn := range fs.Fns {
				c.Barrier()
				t0 := c.Now()
				if h := fn.Start(); h != nil {
					h.Wait()
				}
				c.Barrier()
				if me == 0 {
					samples[fi] = append(samples[fi], c.Now()-t0)
				}
			}
		}
	})
	if buildErr != nil {
		return LeafResult{}, buildErr
	}
	// The tuner's commitment: a brute force fed the first Evals rounds.
	evals := min(sc.Evals, sc.Reps)
	sel := core.NewBruteForce(len(samples), evals)
	for rep := 0; rep < evals; rep++ {
		for fi := range samples {
			sel.Record(fi, samples[fi][rep])
		}
	}
	win := sel.Winner()
	return LeafResult{Leaf: l, Samples: samples[win], Winner: names[win], Candidates: len(names)}, nil
}
