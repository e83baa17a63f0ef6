package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Cache is a content-addressed on-disk result store: one JSON file per
// completed job, named by the job's fingerprint. The address covers the full
// input spec; each entry also records the build that wrote it — the SHA-256
// of the executable that opened the store — and is served to that build
// only. So a hit is always safe to serve, and an interrupted sweep resumes
// for free: completed scenarios are read back instead of re-simulated.
//
// A rebuild of an unchanged tree is byte-identical and keeps its entries. Any
// code change starts afresh, and so does a new commit, because go build
// stamps the VCS revision into the binary: conservative by design.
//
// Writes are atomic (WriteFileAtomic), so a crash mid-write never leaves a
// half-entry that later reads would trust. Corrupt entries, and entries of
// another build, are misses and are overwritten by the next Put.
type Cache struct {
	dir   string
	build string
}

// cacheEntry is the on-disk envelope around a cached result.
type cacheEntry struct {
	Key   string          `json:"key"`
	Label string          `json:"label,omitempty"`
	Build string          `json:"build"`
	Value json.RawMessage `json:"value"`
}

// executableHash identifies the running binary by the SHA-256 of its file,
// computed once per process.
var executableHash = sync.OnceValues(func() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
})

// OpenCache opens (creating if needed) a result store rooted at dir, for the
// build of the running executable.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty cache directory")
	}
	// A directory named like a flag is what `-cache -fast` parses to: the
	// flag was given without its directory, so nothing is created.
	if strings.HasPrefix(dir, "-") {
		return nil, fmt.Errorf("runner: cache directory %q looks like a flag (-cache takes a directory)", dir)
	}
	build, err := executableHash()
	if err != nil {
		return nil, fmt.Errorf("runner: open cache: identify the executable: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	return &Cache{dir: dir, build: build}, nil
}

// Path returns the file backing a key.
func (c *Cache) Path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached value for key, or ok=false on a miss. Unreadable,
// corrupt, mismatched or other-build entries count as misses: resuming must
// never fail because a previous run was interrupted mid-write, and must never
// serve what other code computed.
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	if key == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.Path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(b, &e); err != nil || e.Key != key || e.Build != c.build || len(e.Value) == 0 {
		return nil, false
	}
	return e.Value, true
}

// Put stores value under key atomically. The encoding is compact, and
// encoding/json writes a compact RawMessage verbatim, so the value read back
// is byte-identical to what the job produced.
func (c *Cache) Put(key, label string, value json.RawMessage) error {
	if key == "" {
		return fmt.Errorf("runner: cannot cache under an empty key")
	}
	return WriteFileAtomic(c.Path(key), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(cacheEntry{Key: key, Label: label, Build: c.build, Value: value})
	})
}
