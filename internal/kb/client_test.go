package kb

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientReadThroughCache: the second lookup of the same scenario must
// be served from the client cache, not the daemon.
func TestClientReadThroughCache(t *testing.T) {
	st := NewStore(StoreOptions{})
	st.Put(Record{Key: "k", Env: "e", Winner: "w", Score: 1})
	var hits atomic.Int64
	inner := NewHandler(st, HandlerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientOptions{})
	for i := 0; i < 5; i++ {
		r, ok, err := c.Lookup("k", "e")
		if err != nil || !ok || r.Winner != "w" {
			t.Fatalf("lookup %d: %+v %v %v", i, r, ok, err)
		}
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("daemon saw %d requests for 5 identical lookups, want 1", got)
	}
}

// TestClientMissAskedAgain: a miss is not cached — another tuner may record
// the scenario a moment later, and the next lookup must see it.
func TestClientMissAskedAgain(t *testing.T) {
	st := NewStore(StoreOptions{})
	var hits atomic.Int64
	inner := NewHandler(st, HandlerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientOptions{})
	for i := 0; i < 2; i++ {
		if _, ok, err := c.Lookup("missing", ""); ok || err != nil {
			t.Fatalf("lookup: ok=%v err=%v", ok, err)
		}
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("daemon saw %d requests for 2 missed lookups, want 2", got)
	}
	st.Put(Record{Key: "missing", Winner: "late", Score: 1})
	r, ok, err := c.Lookup("missing", "")
	if err != nil || !ok || r.Winner != "late" {
		t.Fatalf("lookup after another tuner's record: %+v %v %v", r, ok, err)
	}
}

// TestClientRetryBackoff: transient 5xx failures are retried and succeed
// within the bounded attempt budget.
func TestClientRetryBackoff(t *testing.T) {
	st := NewStore(StoreOptions{})
	st.Put(Record{Key: "k", Winner: "w", Score: 1})
	var calls atomic.Int64
	inner := NewHandler(st, HandlerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientOptions{})
	r, ok, err := c.Lookup("k", "")
	if err != nil || !ok || r.Winner != "w" {
		t.Fatalf("lookup after transient failures: %+v %v %v", r, ok, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("daemon saw %d attempts, want 3", calls.Load())
	}

	// Exhausted retries surface an error when no fallback is configured.
	calls.Store(-1000)
	c2 := NewClient(srv.URL, ClientOptions{})
	if _, _, err := c2.Lookup("k2", ""); err == nil {
		t.Fatal("exhausted retries did not surface an error")
	}
}

// TestClientFallback: with the daemon down, lookups and records degrade to
// the local fallback without surfacing errors — tuning keeps working.
func TestClientFallback(t *testing.T) {
	local := NewStore(StoreOptions{})
	local.Put(Record{Key: "k", Env: "e", Winner: "local", Score: 1})

	// 127.0.0.1:1 refuses connections immediately.
	c := NewClient("127.0.0.1:1", ClientOptions{Fallback: local})
	r, ok, err := c.Lookup("k", "e")
	if err != nil || !ok || r.Winner != "local" {
		t.Fatalf("fallback lookup: %+v %v %v", r, ok, err)
	}
	if !c.FellBack() {
		t.Fatal("FellBack not reported")
	}

	c.Record(Record{Key: "new", Winner: "n", Score: 2})
	if n, err := c.Flush(); n != 0 || err != nil {
		t.Fatalf("flush with fallback delivered %d records, error %v; want 0, nil", n, err)
	}
	if got, ok := local.Lookup("new", ""); !ok || got.Winner != "n" {
		t.Fatal("failed record did not land in the fallback store")
	}

	// Without a fallback the failed batch is the caller's error: nothing may
	// report records as shared that the daemon never took.
	bare := NewClient("127.0.0.1:1", ClientOptions{})
	bare.Record(Record{Key: "new", Winner: "n", Score: 2})
	if n, err := bare.Flush(); n != 0 || err == nil {
		t.Fatalf("flush to a dead daemon without fallback delivered %d records, error %v", n, err)
	}
}

// TestClientBatchedRecords: Record only queues; Flush uploads everything
// queued in exactly one batch request and reports what the daemon took.
func TestClientBatchedRecords(t *testing.T) {
	st := NewStore(StoreOptions{})
	var batches atomic.Int64
	inner := NewHandler(st, HandlerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			batches.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientOptions{})
	for i := 0; i < 25; i++ {
		c.Record(Record{Key: "k" + string(rune('a'+i)), Winner: "w", Score: float64(i + 1)})
	}
	if batches.Load() != 0 || st.Len() != 0 {
		t.Fatalf("Record alone reached the daemon: %d batch requests, %d records", batches.Load(), st.Len())
	}
	if n, err := c.Flush(); n != 25 || err != nil {
		t.Fatalf("Flush delivered %d records, error %v; want 25, nil", n, err)
	}
	if st.Len() != 25 {
		t.Fatalf("daemon stored %d records, want 25", st.Len())
	}
	if got := batches.Load(); got != 1 {
		t.Fatalf("daemon saw %d batch requests for 25 records, want 1", got)
	}
	if n, err := c.Flush(); n != 0 || err != nil || batches.Load() != 1 {
		t.Fatalf("Flush with nothing queued: %d records, error %v, %d batch requests", n, err, batches.Load())
	}

	// Recorded winners are served from the write-through cache without a
	// daemon round-trip.
	r, ok, err := c.Lookup("ka", "")
	if err != nil || !ok || r.Winner != "w" {
		t.Fatalf("write-through lookup: %+v %v %v", r, ok, err)
	}
}
