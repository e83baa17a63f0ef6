// Package kb is the tuning knowledge base: the store of ADCL tuning
// decisions behind the paper's historic learning (§IV-B), persisted across
// runs in one file — the direction the NBC survey (Wickramasinghe &
// Lumsdaine, arXiv:1611.06334) identifies as the key lever once per-run
// tuning works: a winner learned once — by any tuner, at any scale — is
// reused by every later run that hits the same scenario under the same
// environment.
//
// Store is a sharded map (per-shard RWMutex) with last-write-wins-by-score
// conflict resolution and a versioned snapshot written atomically (temp
// file, fsync, rename). Open loads that snapshot: it is the -history file
// that tune reads and writes and that sweep writes.
//
// Listen/NewHandler (GET /v1/lookup, POST /v1/record, POST /v1/batch) and
// Client (a read-through caching lookup client) serve a Store over
// HTTP+JSON. No command uses them; they remain for the repository
// benchmark's kb-mixed workload and kb.* probes.
//
// kb deliberately imports only the standard library, so internal/core's
// selector helper (core.SelectorWithHistory) consults a Source without an
// import cycle.
package kb

import "strconv"

// Record is one tuned scenario: the scenario key (core.HistoryKey — the
// function set, platform, communicator size and message size), the
// environment fingerprint it was measured under (core.EnvFingerprint —
// topology plus chaos profile; "" is the clean machine), and the decision.
type Record struct {
	Key    string  `json:"key"`
	Env    string  `json:"env,omitempty"`
	Winner string  `json:"winner"`
	Score  float64 `json:"score,omitempty"` // robust score of the winner (seconds; lower is better)
	Evals  int     `json:"evals,omitempty"` // learning cost that produced it
}

// Source is the seam a tuning session consults before it starts: anything
// that answers "who won this scenario under this environment". *Store is
// the implementation, opened on a -history file or in memory.
type Source interface {
	Lookup(key, env string) (Record, bool)
}

var _ Source = (*Store)(nil)

// CombinedKey builds the canonical storage key for a (scenario key,
// environment fingerprint) pair. Both components use '|' internally
// (HistoryKey between its fields, EnvFingerprint between topology and
// chaos tag), so plain concatenation with any fixed separator could make
// distinct pairs collide — ("a|b", "c") versus ("a", "b|c"). Prefixing
// the key's byte length makes the encoding injective: the pair is
// recoverable by reading the length, taking that many bytes after the
// colon as the key, and the remainder as the env. kb_test pins this.
func CombinedKey(key, env string) string {
	return strconv.Itoa(len(key)) + ":" + key + env
}

// supersedes reports whether an incoming record wins against the stored
// one under LWW-by-score resolution: a strictly better (lower, known)
// score always wins, a strictly worse known score always loses, and when
// either score is unknown (zero) or the scores tie, the last writer wins.
// Concurrent recorders therefore converge on the best-measured winner,
// while score-less writers (e.g. heuristic selectors that never measure)
// still refresh their own entries.
func supersedes(incoming, stored Record) bool {
	if incoming.Score > 0 && stored.Score > 0 {
		return incoming.Score <= stored.Score
	}
	return true
}
