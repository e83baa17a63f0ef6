package bench

import (
	"nbctune/internal/fft"
	"nbctune/internal/runner"
)

// RunOptions configures how a sweep or verification run executes: worker
// count (<= 0 means GOMAXPROCS, 1 sequential, as the commands' -jobs flag
// takes it), result caching, and progress streaming. The zero value runs on
// GOMAXPROCS workers with no cache and no progress.
//
// Parallelism is sound because every scenario is an independent,
// deterministic sim.Engine run: the aggregate built from the ordered
// results is byte-identical whatever the worker count.
type RunOptions = runner.Options

// fingerprint content-addresses a job spec, or returns "" (uncacheable) if
// any part fails to serialize — a missing key degrades to always-run, never
// to a colliding address.
func fingerprint(parts ...any) string {
	k, err := runner.Fingerprint(parts...)
	if err != nil {
		return ""
	}
	return k
}

// VerificationKey is the content address of a full verification run (all
// fixed implementations plus the given selectors) for a scenario.
func VerificationKey(spec MicroSpec, selectors []string) string {
	return fingerprint("verification", spec, selectors)
}

// FixedKey is the content address of one fixed-implementation run.
func FixedKey(spec MicroSpec, fn int) string {
	return fingerprint("fixed", spec, fn)
}

// ADCLKey is the content address of one runtime-selection run. A speculative
// run's name carries its prefix, so it has its own address; the candidate
// worker count is not part of it, as no result depends on it.
func ADCLKey(spec MicroSpec, selector string) string {
	return fingerprint("adcl", spec, selector)
}

// FFTComparisonKey is the content address of a multi-flavor comparison
// (e.g. LibNBC vs ADCL) on one scenario.
func FFTComparisonKey(spec FFTSpec, flavors []fft.Flavor) string {
	return fingerprint("fft-comparison", spec, flavors)
}
