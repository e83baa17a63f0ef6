package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nbctune/internal/core"
	"nbctune/internal/guideline"
	"nbctune/internal/kb"
)

// TestShareKB: audit -kb files an adopted mock under the key tune looks up,
// reports the count the daemon took delivery of, and treats a daemon that
// fails the batch as an error (main exits 1), never as a success line.
func TestShareKB(t *testing.T) {
	sc := guideline.Scenario{Platform: "whale-tcp", Procs: 8, Size: 262144}
	rep := &guideline.Report{Registrations: []guideline.Registration{
		{Op: "ibcast", Scenario: sc, Chosen: core.MockIbcastScatterAllgather, Adopted: true, Evals: 66},
		{Op: "ialltoall", Scenario: sc, Chosen: "ialltoall-linear"}, // not adopted: not shared
	}}
	st := kb.NewStore(kb.StoreOptions{})
	good := httptest.NewServer(kb.NewHandler(st, kb.HandlerOptions{}))
	defer good.Close()
	var diag bytes.Buffer
	if err := shareKB(good.URL, rep, &diag); err != nil || !strings.HasPrefix(diag.String(), "1 adopted winners shared") {
		t.Errorf("healthy daemon: error %v, said %q", err, diag.String())
	}
	if r, ok := st.Lookup(core.HistoryKey("ibcast", "whale-tcp", 8, 262144), ""); !ok || r.Winner != core.MockIbcastScatterAllgather {
		t.Errorf("adopted mock under tune's key: %+v (found=%v)", r, ok)
	}

	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "disk full", http.StatusInternalServerError)
	}))
	defer broken.Close()
	diag.Reset()
	if err := shareKB(broken.URL, rep, &diag); err == nil || diag.Len() != 0 {
		t.Errorf("daemon answering 500 to /v1/batch: error %v, said %q", err, diag.String())
	}
}
