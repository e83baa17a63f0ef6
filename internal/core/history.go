package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"nbctune/internal/kb"
)

// History implements ADCL's historic learning (paper §IV-B): winners found
// in earlier executions are persisted and looked up by a scenario key, so a
// later run can skip the learning phase entirely.
type History struct {
	// Entries holds one outcome per (scenario key, environment): a clean
	// environment's under the plain scenario key, a fingerprinted one's under
	// kb.CombinedKey, the key the tuned daemon files the same pair under.
	Entries map[string]HistoryEntry `json:"entries"`
}

func entryKey(key, env string) string {
	if env == "" {
		return key
	}
	return kb.CombinedKey(key, env)
}

// HistoryEntry records one tuned scenario.
type HistoryEntry struct {
	Winner string  `json:"winner"`          // function name
	Score  float64 `json:"score,omitempty"` // robust score of the winner, if known
	Evals  int     `json:"evals,omitempty"` // learning cost that produced it
	// Env fingerprints the environment the winner was measured in (see
	// EnvFingerprint). A winner tuned under one environment is stale under
	// another — a degraded fabric or an active chaos profile changes which
	// implementation is best — so lookups only hit when fingerprints match.
	// Empty means "clean environment" (entries written before this field
	// existed are clean by construction: chaos did not exist then).
	Env string `json:"env,omitempty"`
}

// HistoryKey builds the canonical scenario key: operation, platform,
// communicator size, and message size fully determine a tuning scenario in
// this library (the paper's §IV-A parameters; progress-call count is a
// property of the code region, not the scenario).
func HistoryKey(fnset, platform string, nprocs, msgSize int) string {
	return fmt.Sprintf("%s|%s|np%d|%dB", fnset, platform, nprocs, msgSize)
}

// EnvFingerprint builds the environment tag stored in HistoryEntry.Env:
// the interconnect topology plus the active chaos profile name (with its
// seed — the same profile seeded differently degrades different nodes).
// The clean environment — flat topology, no chaos — is the empty string, so
// clean runs keep matching entries written before fingerprints existed.
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

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{Entries: map[string]HistoryEntry{}}
}

// LoadHistory reads a history file; a missing file yields an empty history.
func LoadHistory(path string) (*History, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return NewHistory(), nil
	}
	if err != nil {
		return nil, err
	}
	h := NewHistory()
	if err := json.Unmarshal(data, h); err != nil {
		return nil, fmt.Errorf("adcl: corrupt history %s: %w", path, err)
	}
	if h.Entries == nil {
		h.Entries = map[string]HistoryEntry{}
	}
	return h, nil
}

// Save writes the history file atomically through the knowledge base's
// shared helper: unique temp file in the same directory, fsync, rename. A
// crash mid-save therefore leaves the previous complete history in place —
// the earlier fixed-name .tmp scheme could additionally corrupt itself
// under two concurrent savers writing the same temp path.
func (h *History) Save(path string) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return kb.WriteFileAtomic(path, data, 0o644)
}

// Record stores a tuning outcome for the scenario key under the entry's
// environment, replacing only an earlier outcome of that same pair.
func (h *History) Record(key string, e HistoryEntry) {
	if old, ok := h.Entries[key]; ok && old.Env != "" {
		// Files written before entries were keyed per environment hold a
		// scenario's only outcome under the plain key whatever its
		// environment: give it its own key instead of overwriting it.
		delete(h.Entries, key)
		h.Entries[entryKey(key, old.Env)] = old
	}
	h.Entries[entryKey(key, e.Env)] = e
}

// LookupEnv returns the recorded winner for a scenario key under the
// environment fingerprint env. An outcome tuned under a different
// environment is stale and never answers, so the caller falls back to live
// learning instead of committing an invalidated winner.
func (h *History) LookupEnv(key, env string) (HistoryEntry, bool) {
	e, ok := h.Entries[entryKey(key, env)]
	if !ok {
		e, ok = h.Entries[key] // a file from before per-environment keys
	}
	if !ok || e.Env != env {
		return HistoryEntry{}, false
	}
	return e, true
}

// HistorySource is the seam a tuning session consults, once, before it
// starts: anything that can answer "who won this scenario under this
// environment" and accept new outcomes. *History is the local-file
// implementation; KBHistory serves the same contract from the shared tuned
// daemon, so a warm daemon's decisions are byte-identical to a warm local
// history's.
type HistorySource interface {
	LookupEnv(key, env string) (HistoryEntry, bool)
	Record(key string, e HistoryEntry)
}

// SelectorWithHistory returns a FixedSelector when the history already knows
// the winner for key (and the function still exists in fs); otherwise it
// returns fallback. The returned bool reports a history hit. Equivalent to
// SelectorWithHistoryEnv with the clean-environment fingerprint.
func SelectorWithHistory(h *History, key string, fset *FunctionSet, fallback Selector) (Selector, bool) {
	return SelectorWithHistoryEnv(h, key, "", fset, fallback)
}

// SelectorWithHistoryEnv is SelectorWithHistory restricted to entries whose
// environment fingerprint matches env: stale entries (tuned under a
// different topology or chaos profile) are skipped and the fallback
// selector re-learns.
func SelectorWithHistoryEnv(h *History, key, env string, fset *FunctionSet, fallback Selector) (Selector, bool) {
	if h != nil {
		if e, ok := h.LookupEnv(key, env); ok {
			if idx := fset.IndexOf(e.Winner); idx >= 0 {
				return &FixedSelector{Fn: idx}, true
			}
		}
	}
	return fallback, false
}
