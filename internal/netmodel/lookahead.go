// Lookahead: the PDES window bound derived from the platform's minimum
// cross-node latency (satellite of DESIGN.md §13).
package netmodel

// LookaheadFloor returns the minimum one-way WireLatency over all distinct
// node pairs of a `nodes`-node platform — the conservative-PDES lookahead:
// no cross-node interaction can become visible sooner than this after it is
// initiated.
//
// The closed form holds because Validate pins HopLatency >= 0 and every
// distinct pair is at hop distance >= 1, so WireLatency = Latency +
// (hops-1)*HopLatency is minimized at an adjacent pair (hops == 1), which
// every topology with >= 2 nodes has. TestLookaheadFloorBounds re-derives
// this by exhaustive pair scan on flat and torus platforms.
func (p *Params) LookaheadFloor(nodes int) float64 {
	_ = nodes // every >=2-node topology contains an adjacent pair
	return p.Latency
}

// LookaheadFloorUnder tightens the floor by a chaos profile's worst-case
// (minimum) latency multiplier — chaos.Profile.MinLatencyFactor — so a
// profile that can speed links up (factor < 1) still yields a bound no
// degraded or shifted message can undercut. Jitter needs no term: it only
// ever adds delay.
func (p *Params) LookaheadFloorUnder(nodes int, minLatFactor float64) float64 {
	f := minLatFactor
	if f <= 0 || f > 1 {
		// A factor above 1 only slows links; the clean floor stays valid.
		// Non-positive factors are rejected upstream (they would collapse
		// the window), so clamp defensively to the clean floor.
		f = 1
	}
	return p.LookaheadFloor(nodes) * f
}
