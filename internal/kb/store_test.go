package kb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestStoreLWWByScore(t *testing.T) {
	st := NewStore(StoreOptions{Shards: 4})
	if !st.Put(Record{Key: "k", Env: "e", Winner: "a", Score: 2.0}) {
		t.Fatal("first put rejected")
	}
	// Worse score loses.
	if st.Put(Record{Key: "k", Env: "e", Winner: "b", Score: 3.0}) {
		t.Fatal("worse score superseded a better one")
	}
	if r, _ := st.Lookup("k", "e"); r.Winner != "a" {
		t.Fatalf("winner = %q, want a", r.Winner)
	}
	// Better score wins.
	if !st.Put(Record{Key: "k", Env: "e", Winner: "c", Score: 1.0}) {
		t.Fatal("better score rejected")
	}
	// Score-less writer refreshes (last write wins when score unknown).
	if !st.Put(Record{Key: "k", Env: "e", Winner: "d"}) {
		t.Fatal("score-less record rejected")
	}
	if r, _ := st.Lookup("k", "e"); r.Winner != "d" {
		t.Fatalf("winner = %q, want d", r.Winner)
	}
	// Env is part of identity: same key, different env, separate record.
	st.Put(Record{Key: "k", Env: "other", Winner: "x"})
	if r, _ := st.Lookup("k", "other"); r.Winner != "x" {
		t.Fatalf("env-scoped winner = %q, want x", r.Winner)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
}

// TestStoreConcurrentMixed is the satellite -race test: N goroutines doing
// mixed lookup/record/batch traffic against one store must neither race nor
// lose records.
func TestStoreConcurrentMixed(t *testing.T) {
	st := NewStore(StoreOptions{})
	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("op%d|plat|np8|%dB", i%40, 1024*(w%4+1))
				env := ""
				if i%3 == 0 {
					env = "torus3d"
				}
				switch i % 4 {
				case 0:
					st.Put(Record{Key: key, Env: env, Winner: fmt.Sprintf("w%d", w), Score: float64(w+1) * 0.01})
				case 1:
					st.Lookup(key, env)
				case 2:
					st.PutBatch([]Record{
						{Key: key, Env: env, Winner: "batch", Score: 0.5},
						{Key: key + "x", Env: env, Winner: "batch2", Score: 0.5},
					})
				case 3:
					st.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	stats := st.Stats()
	if stats.Puts != stats.Applied+stats.Rejected {
		t.Fatalf("counter mismatch: puts=%d applied=%d rejected=%d", stats.Puts, stats.Applied, stats.Rejected)
	}
	// Every surviving record must carry the best score recorded for it:
	// worker w records score (w+1)*0.01, batches record 0.5, so any key
	// touched by a case-0 put must end below 0.5... unless a score-less or
	// equal-score LWW applied later — here all writers carry scores, so the
	// minimum recorded score must have survived for key op0 variants.
	for _, r := range st.Records() {
		if r.Score == 0 {
			t.Fatalf("record %q lost its score", r.Key)
		}
	}
}

// TestSnapshotRoundTrip: flush, reload, identical content.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	st := NewStore(StoreOptions{SnapshotPath: path})
	st.PutBatch(FixtureRecords())
	if err := st.Flush(false); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(StoreOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Records(), st2.Records()) {
		t.Fatal("reloaded snapshot differs from flushed store")
	}
}

// TestCrashRecovery is the satellite crash test: state mutated after the
// last flush is lost on a crash (by design), but the reloaded store is
// exactly the last flushed snapshot — never a torn mix.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	st := NewStore(StoreOptions{SnapshotPath: path})
	st.Put(Record{Key: "k1", Winner: "a", Score: 1})
	st.Put(Record{Key: "k2", Winner: "b", Score: 2})
	if err := st.Flush(false); err != nil {
		t.Fatal(err)
	}
	flushed := st.Records()

	// Mutations after the flush; the "crash" means they never hit disk.
	st.Put(Record{Key: "k3", Winner: "c", Score: 3})
	st.Put(Record{Key: "k1", Winner: "z", Score: 0.5})

	st2, err := Open(StoreOptions{SnapshotPath: path})
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	if !reflect.DeepEqual(st2.Records(), flushed) {
		t.Fatalf("recovered state != last flushed snapshot:\n got %+v\nwant %+v", st2.Records(), flushed)
	}
	// No temp-file debris: the atomic writer cleans up after itself.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestCorruptSnapshotRefused: a store must not silently start empty, or
// partly loaded, over a torn, foreign or invalid snapshot, and the error says
// what is wrong — for an invalid record, which one (the HTTP surface refuses
// the same record).
func TestCorruptSnapshotRefused(t *testing.T) {
	for _, c := range []struct{ data, want string }{
		{`{"version":1,"records":[{"key":"k"`, "corrupt snapshot"},
		{`{"version":9,"records":[]}`, "unsupported version 9"},
		{`{"version":1,"records":[{"key":"","winner":""}]}`, "record 0 needs key and winner"},
		{`{"version":1,"records":[{"key":"k","winner":"w"},{"key":"k2"}]}`, "record 1 needs key and winner"},
		{`{"version":1,"records":[{"winner":"w"}]}`, "record 0 needs key and winner"},
	} {
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(StoreOptions{SnapshotPath: path}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Open(%s): error %v, want one containing %q", c.data, err, c.want)
		}
	}
}

// TestAutoFlushCoalesces: a burst of records between two flushes costs one
// snapshot write, a flush with nothing new writes nothing, and a record that
// loses on score does not make the store dirty.
func TestAutoFlushCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	st := NewStore(StoreOptions{SnapshotPath: path})
	for i := 0; i < 100; i++ {
		st.Put(Record{Key: fmt.Sprintf("k%d", i), Winner: "w", Score: 1})
	}
	for i := 0; i < 3; i++ {
		if err := st.Flush(false); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Stats().Flushes; got != 1 {
		t.Fatalf("a burst of 100 records and 3 flushes wrote %d snapshots, want 1", got)
	}
	if st.Put(Record{Key: "k0", Winner: "worse", Score: 2}) {
		t.Fatal("worse score superseded a better one")
	}
	if err := st.Flush(false); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Flushes; got != 1 {
		t.Fatalf("a rejected record caused a snapshot write (%d writes)", got)
	}
	st.Put(Record{Key: "late", Winner: "w", Score: 1})
	if err := st.Flush(false); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Flushes; got != 2 {
		t.Fatalf("a late record after a flush wrote %d snapshots in all, want 2", got)
	}
	st2, err := Open(StoreOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Lookup("late", ""); !ok || st2.Len() != 101 {
		t.Fatalf("reloaded store has %d records (late found: %v), want 101 with late", st2.Len(), ok)
	}
}
