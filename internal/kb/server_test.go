package kb

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, st *Store) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(st, HandlerOptions{}))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServerEndpoints(t *testing.T) {
	st := NewStore(StoreOptions{})
	srv := newTestServer(t, st)

	// record then lookup
	var rr recordResponse
	code := postJSON(t, srv.URL+"/v1/record", Record{Key: "k|a", Env: "e", Winner: "w", Score: 0.01, Evals: 6}, &rr)
	if code != http.StatusOK || rr.Applied != 1 || rr.Total != 1 {
		t.Fatalf("record: code=%d resp=%+v", code, rr)
	}
	var lr lookupResponse
	getJSON(t, srv.URL+"/v1/lookup?key=k%7Ca&env=e", &lr)
	if !lr.Found || lr.Record.Winner != "w" || lr.Record.Evals != 6 {
		t.Fatalf("lookup after record: %+v", lr)
	}
	// miss answers found:false with 200 (the client's negative cache needs
	// to tell a confirmed miss from a transport failure).
	lr = lookupResponse{}
	if code := getJSON(t, srv.URL+"/v1/lookup?key=nope", &lr); code != http.StatusOK || lr.Found {
		t.Fatalf("miss: code=%d resp=%+v", code, lr)
	}

	// batch
	rr = recordResponse{}
	batch := batchRequest{Records: []Record{
		{Key: "k|b", Winner: "x", Score: 1},
		{Key: "k|b", Winner: "y", Score: 2}, // worse score: rejected
		{Key: "k|c", Winner: "z"},
	}}
	postJSON(t, srv.URL+"/v1/batch", batch, &rr)
	if rr.Applied != 2 || rr.Total != 3 {
		t.Fatalf("batch: %+v", rr)
	}

	// malformed requests are 400s
	if code := getJSON(t, srv.URL+"/v1/lookup", nil); code != http.StatusBadRequest {
		t.Fatalf("lookup without key: %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/record", Record{Env: "e"}, nil); code != http.StatusBadRequest {
		t.Fatalf("record without key/winner: %d", code)
	}
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(`{"records": [{`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated batch body: %d", resp.StatusCode)
	}

	// wrong method
	resp, err = http.Post(srv.URL+"/v1/lookup?key=k", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST lookup: %d", resp.StatusCode)
	}
}

// TestServerGoldenTranscript replays the committed golden workload over
// real HTTP and requires byte-equivalent answers: service correctness is
// pinned independently of the benchmark (satellite: fixture suite).
func TestServerGoldenTranscript(t *testing.T) {
	st := NewStore(StoreOptions{})
	srv := newTestServer(t, st)

	var rr recordResponse
	postJSON(t, srv.URL+"/v1/batch", batchRequest{Records: FixtureRecords()}, &rr)
	if rr.Applied != 50 || rr.Total != 50 {
		t.Fatalf("fixture load: %+v", rr)
	}

	want := loadGoldenTranscript(t)
	for i, q := range FixtureQueries(0, len(want)) {
		url := srv.URL + "/v1/lookup?" + lookupQueryString(q)
		var lr lookupResponse
		getJSON(t, url, &lr)
		got := TranscriptEntry{Key: q.Key, Env: q.Env, Found: lr.Found}
		if lr.Found {
			got.Winner = lr.Record.Winner
		}
		if got != want[i] {
			t.Fatalf("transcript[%d]: got %+v, want %+v", i, got, want[i])
		}
	}
}

// TestKBSmoke is the server's end-to-end check on a real socket: Listen on a
// free port, load the fixture through /v1/batch, replay the golden workload
// through a Client, then Shutdown and require the flushed snapshot to
// restore the identical store.
func TestKBSmoke(t *testing.T) {
	snapshot := filepath.Join(t.TempDir(), "snap.json")
	st, err := Open(StoreOptions{SnapshotPath: snapshot})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", st, HandlerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Serve()
	shut := false
	defer func() {
		if !shut {
			s.Shutdown(time.Second)
		}
	}()

	var rr recordResponse
	postJSON(t, "http://"+s.Addr+"/v1/batch", batchRequest{Records: FixtureRecords()}, &rr)
	if rr.Applied != 50 || rr.Total != 50 {
		t.Fatalf("fixture load: %+v", rr)
	}
	want := loadGoldenTranscript(t)
	c := NewClient(s.Addr, ClientOptions{})
	for i, q := range FixtureQueries(0, len(want)) {
		rec, found, err := c.Lookup(q.Key, q.Env)
		if err != nil {
			t.Fatalf("lookup[%d]: %v", i, err)
		}
		got := TranscriptEntry{Key: q.Key, Env: q.Env, Found: found}
		if found {
			got.Winner = rec.Winner
		}
		if got != want[i] {
			t.Fatalf("transcript[%d]: got %+v, want %+v", i, got, want[i])
		}
	}

	shut = true
	if err := s.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	restored, err := Open(StoreOptions{SnapshotPath: snapshot})
	if err != nil {
		t.Fatalf("restore snapshot: %v", err)
	}
	if !reflect.DeepEqual(restored.Records(), st.Records()) || restored.Len() != 50 {
		t.Fatalf("restored snapshot has %d records and differs from the served store", restored.Len())
	}
}

func lookupQueryString(q LookupQuery) string {
	v := url.Values{"key": {q.Key}}
	if q.Env != "" {
		v.Set("env", q.Env)
	}
	return v.Encode()
}
