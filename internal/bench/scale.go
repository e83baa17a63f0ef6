package bench

// Scale pins: the deterministic outcome of a barrier + broadcast workload on
// bgp-16k worlds of 1K/4K/16K ranks, committed in BENCH_scale.json.
// TestSimulatedPins and TestIdleWorldFootprint16K assert the file exactly
// (and rewrite it under -update); the repository benchmark's scale-4k
// workload checks its warm-up pass against the 4096-rank point.

// ScalePoint is one rank count's pinned outcome.
type ScalePoint struct {
	Ranks int `json:"ranks"`
	Nodes int `json:"nodes"`
	// Events is the deterministic event count of one workload run
	// (dissemination barrier + 64 KiB binomial broadcast).
	Events int64 `json:"events"`
	// VirtualSeconds is the workload's simulated completion time.
	VirtualSeconds float64 `json:"virtual_seconds"`
}
