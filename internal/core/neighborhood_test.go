package core

import (
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

func nbWorld(t *testing.T, n int) (*sim.Engine, *mpi.World) {
	t.Helper()
	eng := sim.NewEngine(1)
	p := netmodel.Params{
		Name: "nb-test", Latency: 2e-6, Bandwidth: 1.5e9, NICs: 1, MsgGap: 1e-6,
		OSend: 1e-6, ORecv: 1e-6, OPost: 2e-7, OProgress: 5e-7, OTest: 5e-8,
		EagerLimit: 16 * 1024, RDMA: true, CtrlBytes: 64,
		CopyBandwidth: 3e9, ShmLatency: 4e-7, ShmBandwidth: 5e9,
		IncastK: 8, IncastBeta: 0.02, IncastCap: 2,
	}
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	net, err := netmodel.New(eng, p, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld([]*netmodel.Network{net}, nil, n, mpi.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

func TestNeighborhoodSetStructure(t *testing.T) {
	eng, w := nbWorld(t, 4)
	var fnCount int
	var names []string
	w.Start(func(c *mpi.Comm) {
		halo, err := Grid2D(c, 2, 2, 8, 8, 8, mpi.Buf{})
		if err != nil {
			t.Error(err)
			return
		}
		fs, err := NeighborhoodSet(c, halo)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			fnCount = len(fs.Fns)
			names = fs.FunctionNames()
		}
		// Every implementation must run to completion.
		for _, fn := range fs.Fns {
			if st := fn.Start(); st != nil {
				st.Wait()
			}
		}
	})
	eng.Run()
	if fnCount != 6 {
		t.Fatalf("neighborhood set has %d functions (%v), want 6", fnCount, names)
	}
}

// TestNeighborhoodDataCorrectness runs every implementation on real field
// data over a non-degenerate 3x3 grid (all four neighbors distinct) and
// checks the ghost cells receive the right peers' interior data.
func TestNeighborhoodDataCorrectness(t *testing.T) {
	const gw, gh = 3, 3
	const rows, cols, es = 4, 4, 1
	for fnIdx := 0; fnIdx < 6; fnIdx++ {
		fnIdx := fnIdx
		bufs := make([][]byte, gw*gh)
		eng, w := nbWorld(t, gw*gh)
		w.Start(func(c *mpi.Comm) {
			buf := make([]byte, rows*cols*es)
			for i := range buf {
				buf[i] = byte(c.Rank()*50 + i)
			}
			halo, err := Grid2D(c, gw, gh, rows, cols, es, mpi.Bytes(buf))
			if err != nil {
				t.Error(err)
				return
			}
			fs, err := NeighborhoodSet(c, halo)
			if err != nil {
				t.Error(err)
				return
			}
			if st := fs.Fns[fnIdx].Start(); st != nil {
				st.Wait()
			}
			bufs[c.Rank()] = buf
		})
		eng.Run()
		// Rank 0 sits at (0,0): north = rank 6, south = rank 3, west =
		// rank 2, east = rank 1. The north ghost row (row 0) receives the
		// north neighbor's southernmost interior row (rows-2); the south
		// ghost row receives the south neighbor's row 1; columns mirror
		// that. Corners are order-dependent and skipped.
		cell := func(rank, r, cc int) byte { return byte(rank*50 + r*cols + cc) }
		if got, want := bufs[0][0*cols+1], cell(6, rows-2, 1); got != want {
			t.Fatalf("fn %d: north ghost = %d, want %d (rank 6's row %d)", fnIdx, got, want, rows-2)
		}
		if got, want := bufs[0][(rows-1)*cols+1], cell(3, 1, 1); got != want {
			t.Fatalf("fn %d: south ghost = %d, want %d (rank 3's row 1)", fnIdx, got, want)
		}
		if got, want := bufs[0][1*cols+0], cell(2, 1, cols-2); got != want {
			t.Fatalf("fn %d: west ghost = %d, want %d (rank 2's col %d)", fnIdx, got, want, cols-2)
		}
		if got, want := bufs[0][1*cols+(cols-1)], cell(1, 1, 1); got != want {
			t.Fatalf("fn %d: east ghost = %d, want %d (rank 1's col 1)", fnIdx, got, want)
		}
		// Interior cells are never written by the exchange.
		if got, want := bufs[0][cols+1], byte(cols+1); got != want {
			t.Fatalf("fn %d: interior cell modified: %d, want %d", fnIdx, got, want)
		}
	}
}

// TestNeighborhoodTuning runs the full ADCL loop over the neighborhood set
// and checks a consistent decision is reached.
func TestNeighborhoodTuning(t *testing.T) {
	const gw, gh = 2, 2
	eng, w := nbWorld(t, gw*gh)
	winners := make([]string, gw*gh)
	w.Start(func(c *mpi.Comm) {
		halo, err := Grid2D(c, gw, gh, 64, 64, 8, mpi.Buf{}) // 64x64 doubles, virtual
		if err != nil {
			t.Error(err)
			return
		}
		fs, err := NeighborhoodSet(c, halo)
		if err != nil {
			t.Error(err)
			return
		}
		req := MustRequest(fs, NewBruteForce(len(fs.Fns), 2), c.Now)
		timer := MustTimer(c.Now, req)
		for it := 0; it < 16; it++ {
			timer.Start()
			req.Init()
			c.Compute(1e-3)
			req.Progress()
			req.Wait()
			StopMaybeSynced(c, timer, req)
		}
		if !req.Decided() {
			t.Errorf("rank %d: undecided after 16 iterations", c.Rank())
			return
		}
		winners[c.Rank()] = req.Winner().Name
	})
	eng.Run()
	for r := 1; r < gw*gh; r++ {
		if winners[r] != winners[0] {
			t.Fatalf("ranks disagree: %v", winners)
		}
	}
}

// TestNeighborhoodHeuristicSlices: the 3-attribute set must be navigable by
// the attribute heuristic even though the grid is incomplete.
func TestNeighborhoodHeuristicSlices(t *testing.T) {
	eng, w := nbWorld(t, 4)
	decided := false
	w.Start(func(c *mpi.Comm) {
		halo, err := Grid2D(c, 2, 2, 32, 32, 8, mpi.Buf{})
		if err != nil {
			t.Error(err)
			return
		}
		fs, err := NeighborhoodSet(c, halo)
		if err != nil {
			t.Error(err)
			return
		}
		sel := NewAttrHeuristic(fs, 2)
		req := MustRequest(fs, sel, c.Now)
		timer := MustTimer(c.Now, req)
		for it := 0; it < 20; it++ {
			timer.Start()
			req.Init()
			c.Compute(1e-3)
			req.Progress()
			req.Wait()
			StopMaybeSynced(c, timer, req)
		}
		if c.Rank() == 0 {
			decided = req.Decided()
		}
	})
	eng.Run()
	if !decided {
		t.Fatal("attribute heuristic did not converge on the neighborhood set")
	}
}

func TestGrid2DValidation(t *testing.T) {
	eng, w := nbWorld(t, 4)
	w.Start(func(c *mpi.Comm) {
		if _, err := Grid2D(c, 3, 2, 4, 4, 8, mpi.Buf{}); err == nil {
			t.Error("grid size mismatch accepted")
		}
		if _, err := Grid2D(c, 2, 2, 4, 4, 8, mpi.Bytes(make([]byte, 10))); err == nil {
			t.Error("undersized buffer accepted")
		}
	})
	eng.Run()
}
