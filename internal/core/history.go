package core

import (
	"fmt"

	"nbctune/internal/kb"
)

// ADCL's historic learning (paper §IV-B): winners found in earlier
// executions are kept in the knowledge base (internal/kb: a *kb.Store, whose
// snapshot is the -history file) and looked
// up by scenario key and environment, so a later run can skip the learning
// phase entirely. This file holds the two halves of that key and the helper
// that turns a hit into a selector.

// HistoryKey builds the canonical scenario key: operation, platform,
// communicator size, and message size fully determine a tuning scenario in
// this library (the paper's §IV-A parameters; progress-call count is a
// property of the code region, not the scenario).
func HistoryKey(fnset, platform string, nprocs, msgSize int) string {
	return fmt.Sprintf("%s|%s|np%d|%dB", fnset, platform, nprocs, msgSize)
}

// EnvFingerprint builds the environment tag stored in kb.Record.Env: the
// interconnect topology plus the active chaos profile name (with its seed —
// the same profile seeded differently degrades different nodes). A winner
// tuned under one environment is stale under another — a degraded fabric or
// an active chaos profile changes which implementation is best — so a record
// only answers lookups under the fingerprint it was stored with. The clean
// environment — flat topology, no chaos — is the empty string.
func EnvFingerprint(topology string, chaosProfile string, chaosSeed int64) string {
	if topology == "flat" {
		topology = ""
	}
	if chaosProfile == "" || chaosProfile == "off" {
		return topology
	}
	if topology == "" {
		return fmt.Sprintf("chaos=%s#%d", chaosProfile, chaosSeed)
	}
	return fmt.Sprintf("%s|chaos=%s#%d", topology, chaosProfile, chaosSeed)
}

// SelectorWithHistory returns a FixedSelector when src already knows the
// winner for key under the environment fingerprint env ("" is the clean
// machine) and that function still exists in fset; otherwise it returns
// fallback, which re-learns. A record tuned under a different environment
// never answers. The returned bool reports a history hit.
func SelectorWithHistory(src kb.Source, key, env string, fset *FunctionSet, fallback Selector) (Selector, bool) {
	if r, ok := src.Lookup(key, env); ok {
		if idx := fset.IndexOf(r.Winner); idx >= 0 {
			return &FixedSelector{Fn: idx}, true
		}
	}
	return fallback, false
}
