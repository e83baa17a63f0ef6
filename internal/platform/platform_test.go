package platform

import (
	"math/rand"
	"testing"

	"nbctune/internal/chaos"
	"nbctune/internal/mpi"
)

func TestPresetsValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Net.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.FlopRate <= 0 || p.Nodes <= 0 || p.CoresPerNode <= 0 {
			t.Errorf("%s: bad host parameters", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"crill", "whale", "whale-tcp", "bgp", "bgp-16k"} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, p.Name, err)
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestPlacementCyclic(t *testing.T) {
	p := Whale()
	nodeOf, err := p.NodeOf(130, Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if nodeOf[0] != 0 || nodeOf[1] != 1 || nodeOf[64] != 0 || nodeOf[129] != 1 {
		t.Fatalf("cyclic placement wrong: %v...", nodeOf[:4])
	}
}

func TestPlacementBlock(t *testing.T) {
	p := Whale() // 8 cores per node
	nodeOf, err := p.NodeOf(20, Block)
	if err != nil {
		t.Fatal(err)
	}
	if nodeOf[0] != 0 || nodeOf[7] != 0 || nodeOf[8] != 1 || nodeOf[19] != 2 {
		t.Fatalf("block placement wrong: %v", nodeOf)
	}
}

func TestCapacityEnforced(t *testing.T) {
	p := Whale()
	if _, err := p.NodeOf(64*8+1, Cyclic); err == nil {
		t.Error("over-capacity placement accepted")
	}
	if _, err := p.NodeOf(0, Cyclic); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestNewWorldRuns(t *testing.T) {
	p := Crill()
	eng, w, err := p.NewWorld(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var end float64
	w.Start(func(c *mpi.Comm) {
		c.Barrier()
		end = c.Now()
	})
	eng.Run()
	if end <= 0 {
		t.Fatal("barrier took no time")
	}
}

// TestNoiseModelProperties: every preset's OS noise is a valid model, only
// BG/P's compute-node kernel is noiseless, and the model applied to a rank's
// math/rand stream never shortens a phase and now and then detours.
func TestNoiseModelProperties(t *testing.T) {
	for _, p := range All() {
		if err := (&chaos.Profile{Name: p.Name, OSNoise: p.Noise}).Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if noiseless := p.Name == "bgp" || p.Name == "bgp-16k"; p.Noise.Draws() == noiseless {
			t.Errorf("%s: noise %+v", p.Name, p.Noise)
		}
	}
	n := chaos.OSNoise{NoiseRel: 0.01, DetourProb: 0.1, DetourTime: 1e-3}
	rng := rand.New(rand.NewSource(1))
	sawSpike := false
	for i := 0; i < 1000; i++ {
		d := n.Apply(rng, 0.01)
		if d < 0.01 {
			t.Fatal("noise shortened a compute phase")
		}
		if d > 0.011 {
			sawSpike = true
		}
	}
	if !sawSpike {
		t.Fatal("no OS spike in 1000 draws at p=0.1")
	}
}
