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

	// Exhausted retries surface an error.
	calls.Store(-1000)
	c2 := NewClient(srv.URL, ClientOptions{})
	if _, _, err := c2.Lookup("k2", ""); err == nil {
		t.Fatal("exhausted retries did not surface an error")
	}
}

// TestClientBatchedRecords: records uploaded in one /v1/batch request are
// all served to a client, each asked of the server once and then answered
// from the client cache.
func TestClientBatchedRecords(t *testing.T) {
	st := NewStore(StoreOptions{})
	var batches, lookups atomic.Int64
	inner := NewHandler(st, HandlerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/batch":
			batches.Add(1)
		case "/v1/lookup":
			lookups.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var recs []Record
	for i := 0; i < 25; i++ {
		recs = append(recs, Record{Key: "k" + string(rune('a'+i)), Winner: "w", Score: float64(i + 1)})
	}
	var rr recordResponse
	postJSON(t, srv.URL+"/v1/batch", batchRequest{Records: recs}, &rr)
	if rr.Applied != 25 || rr.Total != 25 || st.Len() != 25 || batches.Load() != 1 {
		t.Fatalf("batch upload: %+v, %d records stored, %d batch requests", rr, st.Len(), batches.Load())
	}

	c := NewClient(srv.URL, ClientOptions{})
	for round := 0; round < 2; round++ {
		for _, want := range recs {
			r, ok, err := c.Lookup(want.Key, "")
			if err != nil || !ok || r != want {
				t.Fatalf("round %d lookup %q: %+v %v %v", round, want.Key, r, ok, err)
			}
		}
	}
	if got := lookups.Load(); got != 25 {
		t.Fatalf("server saw %d lookups for 2 rounds over 25 batched records, want 25", got)
	}
}
