package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/platform"
	"nbctune/internal/sim"
)

var update = flag.Bool("update", false, "rewrite BENCH_scale.json from the rows this run simulates")

const scalePinsPath = "../../BENCH_scale.json"

// IdleBudgetBytesPerRank is the hard per-rank memory budget for an idle
// world, independent of any committed baseline: a 16K-rank world must
// construct inside it on any machine. Measured cost is ~400 B/rank (rank
// records, world free lists, per-node NIC state amortized over the ranks
// sharing the node); the budget leaves ~2.5x headroom while still refusing
// any eager-initialization regression — pre-scale-work worlds cost
// ~5.5 KiB/rank (per-rank RNGs alone were 4.9 KiB).
const IdleBudgetBytesPerRank = 1024

// scaleProg is the pinned workload: a full-world barrier (matching
// pressure: log2(n) rounds, n messages each) followed by a binomial
// broadcast (tree latency + pipelining).
func scaleProg(c *mpi.Comm) {
	n, me := c.Size(), c.Rank()
	nbc.Run(c, nbc.Ibarrier(n, me))
	nbc.Run(c, nbc.Ibcast(n, me, 0, mpi.Virtual(64*1024), nbc.FanoutBinomial, 32*1024))
}

// scalePins is BENCH_scale.json: what scaleProg deterministically does on
// block-placed bgp-16k worlds. Sequential worlds are keyed by rank count; the
// sharded engine has its own timeline (DESIGN.md §2), pinned at 4096 ranks
// and identical at every shard count.
type scalePins struct {
	Pins     string                `json:"pins"`
	Workload string                `json:"workload"`
	Points   map[string]ScalePoint `json:"points_by_ranks"`
	PDES     pdesPin               `json:"pdes_4096_ranks"`
}

type pdesPin struct {
	Events         int64   `json:"events"`
	WindowBarriers int64   `json:"window_barriers"`
	VirtualSeconds float64 `json:"virtual_seconds"`
}

// loadScalePins reads the file once per test; under -update the test's
// cleanup rewrites it, with rows the run skipped (-short) keeping their
// values, so a missing file is regenerated whole by a full run.
func loadScalePins(t *testing.T) *scalePins {
	t.Helper()
	p := &scalePins{Points: map[string]ScalePoint{}}
	data, err := os.ReadFile(scalePinsPath)
	switch {
	case *update && os.IsNotExist(err):
	case err != nil:
		t.Fatalf("%v (run with -update to regenerate)", err)
	default:
		if err := json.Unmarshal(data, p); err != nil {
			t.Fatalf("%s: %v", scalePinsPath, err)
		}
	}
	if *update {
		t.Cleanup(func() { p.save(t) })
	}
	return p
}

func (p *scalePins) save(t *testing.T) {
	p.Pins = "deterministic outcome of the scale workload, asserted exactly by tier-1 tests; regenerate: go test ./internal/bench -run 'TestSimulatedPins|TestIdleWorldFootprint16K' -update"
	p.Workload = "dissemination Ibarrier + binomial Ibcast 64KiB seg 32KiB, virtual payloads, block placement on bgp-16k"
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(scalePinsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkPoint compares a sequential run against its committed row, or stores
// it under -update.
func (p *scalePins) checkPoint(t *testing.T, got ScalePoint) {
	t.Helper()
	key := fmt.Sprint(got.Ranks)
	if *update {
		p.Points[key] = got
	}
	if want := p.Points[key]; got != want {
		t.Errorf("%d ranks: simulated %+v, %s pins %+v (the simulation changed; -update after review)",
			got.Ranks, got, scalePinsPath, want)
	}
}

func bgp16k(t *testing.T) platform.Platform {
	t.Helper()
	plat, err := platform.ByName("bgp-16k")
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

// runScale runs scaleProg on a freshly built sequential world.
func runScale(plat platform.Platform, ranks int, eng *sim.Engine, w *mpi.World) ScalePoint {
	w.Start(scaleProg)
	virt := eng.Run()
	return ScalePoint{
		Ranks: ranks, Nodes: (ranks + plat.CoresPerNode - 1) / plat.CoresPerNode,
		Events: eng.EventsFired, VirtualSeconds: virt,
	}
}

// TestSimulatedPins holds the simulation itself still: event counts, virtual
// end times and window barriers of the scale workload are exact properties
// of the model, so any drift means the simulated machine changed and a
// reviewed -update must own it. The 16384-rank row rides
// TestIdleWorldFootprint16K, which already runs that world.
func TestSimulatedPins(t *testing.T) {
	rows := []struct{ ranks, shards int }{ // shards 0 = sequential engine
		{1024, 0}, {4096, 0}, {4096, 1}, {4096, 2}, {4096, 4},
	}
	plat, pins := bgp16k(t), loadScalePins(t)
	for _, row := range rows {
		if testing.Short() && row.ranks > 1024 {
			continue
		}
		if row.shards == 0 {
			eng, w, err := plat.NewWorldPlaced(row.ranks, 1, platform.Block)
			if err != nil {
				t.Fatal(err)
			}
			pins.checkPoint(t, runScale(plat, row.ranks, eng, w))
			continue
		}
		sw, err := plat.NewWorldPDES(row.ranks, 1, platform.Block, row.shards)
		if err != nil {
			t.Fatal(err)
		}
		sw.Start(scaleProg)
		sw.Run()
		got := pdesPin{Events: sw.EventsFired(), WindowBarriers: sw.Windows().Barriers, VirtualSeconds: sw.Windows().Now()}
		if *update && row.shards == 1 { // higher shard counts must then reproduce it
			pins.PDES = got
		}
		if got != pins.PDES {
			t.Errorf("%d ranks x %d shards: simulated %+v, %s pins %+v (the simulation changed; -update after review)",
				row.ranks, row.shards, got, scalePinsPath, pins.PDES)
		}
	}
}

// TestIdleWorldFootprint16K pins the scale tentpole's memory guarantee: a
// 16K-rank world on the bgp-16k torus constructs inside the hard per-rank
// budget, and the cheap world is a real one — it runs the scale workload
// (full-world barrier + 64 KiB binomial broadcast) to the committed
// 16384-rank event count and virtual end time. This is the in-tree
// regression stop for eager-initialization creep (pre-scale-work worlds
// cost ~5.5 KiB/rank and would fail here by 5x).
func TestIdleWorldFootprint16K(t *testing.T) {
	ranks := 16384
	if testing.Short() {
		ranks = 4096 // same budget, quarter the workload wall time
	}
	plat := bgp16k(t)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	eng, w, err := plat.NewWorldPlaced(ranks, 1, platform.Block)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perRank := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(ranks)
	if perRank > IdleBudgetBytesPerRank {
		t.Errorf("idle %d-rank world costs %.0f B/rank, budget is %d B/rank",
			ranks, perRank, IdleBudgetBytesPerRank)
	}

	pt := runScale(plat, ranks, eng, w)
	loadScalePins(t).checkPoint(t, pt)
	t.Logf("%d ranks: %.0f B/rank idle, workload %d events in %.3f virtual s",
		ranks, perRank, pt.Events, pt.VirtualSeconds)
}
