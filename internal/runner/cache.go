package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Cache is a content-addressed on-disk result store: one JSON file per
// completed job, named by the job's fingerprint. Because the address covers
// the full input spec plus the code-version salt, a hit is always safe to
// serve, and an interrupted sweep resumes for free — completed scenarios are
// read back instead of re-simulated.
//
// Writes are atomic (temp file + rename), so a crash mid-write never leaves
// a half-entry that later reads would trust. Corrupt or mismatched entries
// are treated as misses and overwritten on the next Put.
type Cache struct {
	dir string
}

// cacheEntry is the on-disk envelope around a cached result.
type cacheEntry struct {
	Key     string          `json:"key"`
	Label   string          `json:"label,omitempty"`
	Version string          `json:"version"`
	Value   json.RawMessage `json:"value"`
}

// OpenCache opens (creating if needed) a result store rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Path returns the file backing a key.
func (c *Cache) Path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached value for key, or ok=false on a miss. Unreadable,
// corrupt, or mismatched entries count as misses: resuming must never fail
// because a previous run was interrupted mid-write or the format changed.
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	if key == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.Path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(b, &e); err != nil || e.Key != key || e.Version != CodeVersion || len(e.Value) == 0 {
		return nil, false
	}
	return e.Value, true
}

// Put stores value under key atomically.
func (c *Cache) Put(key, label string, value json.RawMessage) error {
	if key == "" {
		return fmt.Errorf("runner: cannot cache under an empty key")
	}
	// Compact encoding: json.Marshal writes the RawMessage verbatim, so the
	// value read back is byte-identical to what the job produced.
	b, err := json.Marshal(cacheEntry{Key: key, Label: label, Version: CodeVersion, Value: value})
	if err != nil {
		return fmt.Errorf("runner: encode cache entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("runner: cache write: %w", err)
	}
	_, werr := tmp.Write(append(b, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write: %v / %v", werr, cerr)
	}
	if err := os.Rename(tmp.Name(), c.Path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write: %w", err)
	}
	return nil
}
