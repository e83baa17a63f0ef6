package netmodel

import "testing"

// TestLookaheadFloorBounds re-derives by exhaustive pair scan the PDES
// lookahead platform.NewWorldPDES uses, Params.Latency: Validate pins
// HopLatency >= 0 and every distinct pair is at hop distance >= 1, so
// the wire latency Latency + (hops-1)*HopLatency is minimized at an adjacent
// pair. On flat and torus platforms the floor must lower-bound every
// cross-node wire latency, and must be attained by some pair (otherwise
// windows would be needlessly small).
func TestLookaheadFloorBounds(t *testing.T) {
	cases := []struct {
		name  string
		p     Params
		nodes int
	}{
		{"flat", Params{Name: "flat", Latency: 4e-6, Bandwidth: 1e9, NICs: 1,
			CopyBandwidth: 1e9, ShmBandwidth: 1e9}, 32},
		{"torus-4x4x4", Params{Name: "torus", Latency: 3.5e-6, HopLatency: 8e-8,
			Topology: Torus3D, TorusDims: [3]int{4, 4, 4}, Bandwidth: 1e9, NICs: 1,
			CopyBandwidth: 1e9, ShmBandwidth: 1e9}, 64},
		{"torus-flat-dims", Params{Name: "torus-1d", Latency: 2e-6, HopLatency: 5e-7,
			Topology: Torus3D, TorusDims: [3]int{8, 1, 1}, Bandwidth: 1e9, NICs: 1,
			CopyBandwidth: 1e9, ShmBandwidth: 1e9}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodeOf := make([]int, tc.nodes)
			for i := range nodeOf {
				nodeOf[i] = i
			}
			_, n := mustNet(t, tc.p, nodeOf)
			floor := tc.p.Latency
			if floor <= 0 {
				t.Fatalf("floor = %g, want positive", floor)
			}
			attained := false
			for a := 0; a < tc.nodes; a++ {
				for b := 0; b < tc.nodes; b++ {
					if a == b {
						continue
					}
					wl := n.wireLatency(a, b)
					if wl < floor {
						t.Fatalf("wireLatency(%d,%d) = %g below floor %g", a, b, wl, floor)
					}
					if wl == floor {
						attained = true
					}
				}
			}
			if !attained {
				t.Errorf("floor %g not attained by any pair (needlessly small windows)", floor)
			}
		})
	}
}
