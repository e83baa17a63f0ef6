package kb

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"nbctune/internal/runner"
)

// DefaultShards is the shard count used when StoreOptions leaves it zero:
// enough to keep write contention negligible at a few hundred concurrent
// clients while each shard's map stays small.
const DefaultShards = 64

// StoreOptions configures a Store.
type StoreOptions struct {
	// Shards is the number of independently locked map shards; rounded up
	// to a power of two. 0 means DefaultShards.
	Shards int
	// SnapshotPath, when non-empty, is where Flush persists the store and
	// where Open loads it from at start.
	SnapshotPath string
}

// Store is the sharded in-memory knowledge base. Every public method is
// safe for concurrent use; reads take a per-shard RLock only, writes lock
// only the one shard owning the combined key.
type Store struct {
	shards []shard
	mask   uint32

	opts  StoreOptions
	dirty atomic.Bool // set by writers, cleared by Flush — coalesces bursts into one snapshot write

	flushMu sync.Mutex // serializes snapshot writes

	rejected atomic.Uint64 // records that lost to a stored one, exposed by Stats
}

type shard struct {
	mu sync.RWMutex
	m  map[string]Record
}

// NewStore builds an empty store.
func NewStore(opts StoreOptions) *Store {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &Store{shards: make([]shard, pow), mask: uint32(pow - 1), opts: opts}
	for i := range s.shards {
		s.shards[i].m = make(map[string]Record)
	}
	return s
}

// Open builds a store and loads its snapshot. A missing snapshot yields an
// empty store; a corrupt one, or one in a directory that does not exist, an
// error. Both are refused here, before the caller spends a run learning
// winners it could not keep: a corrupt file must not be silently replaced by
// an empty one, and a file that cannot be created would fail only at Flush.
func Open(opts StoreOptions) (*Store, error) {
	s := NewStore(opts)
	if opts.SnapshotPath == "" {
		return s, nil
	}
	if _, err := os.Stat(filepath.Dir(opts.SnapshotPath)); err != nil {
		return nil, fmt.Errorf("kb: snapshot %s: %w", opts.SnapshotPath, err)
	}
	if err := s.loadSnapshot(opts.SnapshotPath); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) shardFor(ck string) *shard {
	h := fnv.New32a()
	h.Write([]byte(ck))
	return &s.shards[h.Sum32()&s.mask]
}

// Lookup returns the stored record for a (scenario key, env fingerprint)
// pair.
func (s *Store) Lookup(key, env string) (Record, bool) {
	ck := CombinedKey(key, env)
	sh := s.shardFor(ck)
	sh.mu.RLock()
	r, ok := sh.m[ck]
	sh.mu.RUnlock()
	return r, ok
}

// Put records a tuning decision, resolving conflicts LWW-by-score (see
// supersedes). It reports whether the record was applied.
func (s *Store) Put(r Record) bool {
	ck := CombinedKey(r.Key, r.Env)
	sh := s.shardFor(ck)
	sh.mu.Lock()
	old, exists := sh.m[ck]
	apply := !exists || supersedes(r, old)
	if apply {
		sh.m[ck] = r
	}
	sh.mu.Unlock()
	if apply {
		s.dirty.Store(true)
	} else {
		s.rejected.Add(1)
	}
	return apply
}

// PutBatch applies a batch of records and returns how many were applied.
func (s *Store) PutBatch(rs []Record) int {
	n := 0
	for _, r := range rs {
		if s.Put(r) {
			n++
		}
	}
	return n
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Records returns every stored record sorted by combined key, so snapshots
// are deterministic for a given content.
func (s *Store) Records() []Record {
	type kr struct {
		ck string
		r  Record
	}
	var all []kr
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for ck, r := range sh.m {
			all = append(all, kr{ck, r})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ck < all[j].ck })
	rs := make([]Record, len(all))
	for i, e := range all {
		rs[i] = e.r
	}
	return rs
}

// Stats is a point-in-time reading of the store's counter.
type Stats struct {
	// Rejected counts the records Put did not apply because a stored record
	// supersedes them (the benchmark's kb.lww_rejects).
	Rejected uint64 `json:"rejected"`
}

// Stats returns the current count.
func (s *Store) Stats() Stats {
	return Stats{Rejected: s.rejected.Load()}
}

// snapshotFile is the on-disk format: versioned so a future layout change
// can migrate instead of misparse.
type snapshotFile struct {
	Version int      `json:"version"`
	Records []Record `json:"records"`
}

func (s *Store) loadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("kb: corrupt snapshot %s: %w", path, err)
	}
	if f.Version != 1 {
		return fmt.Errorf("kb: snapshot %s has unsupported version %d", path, f.Version)
	}
	for i, r := range f.Records {
		if r.Key == "" || r.Winner == "" {
			return fmt.Errorf("kb: snapshot %s: record %d needs key and winner", path, i)
		}
		s.Put(r)
	}
	s.dirty.Store(false) // loading is not new state
	return nil
}

// Flush writes the snapshot if anything changed since the last flush (or
// unconditionally with force). Writers only mark a dirty flag, so any burst
// of records between two flushes coalesces into a single atomic snapshot
// write.
func (s *Store) Flush(force bool) error {
	if s.opts.SnapshotPath == "" {
		return nil
	}
	if !s.dirty.Swap(false) && !force {
		return nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return runner.WriteFileAtomic(s.opts.SnapshotPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snapshotFile{Version: 1, Records: s.Records()})
	})
}
