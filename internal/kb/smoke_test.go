package kb

import (
	"bufio"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestKBSmoke is the daemon's end-to-end check: build the real cmd/tuned
// binary, start it on a random port, run the fixture workload through
// kb.Client, and assert the lookups reproduce the committed golden
// transcript deterministically.
// It then terminates the daemon gracefully and verifies the
// shutdown-flushed snapshot restores the identical store.
func TestKBSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs cmd/tuned; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tuned")
	build := exec.Command("go", "build", "-o", bin, "nbctune/cmd/tuned")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/tuned: %v\n%s", err, out)
	}

	snapshot := filepath.Join(dir, "snap.json")
	daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-snapshot", snapshot, "-quiet")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()

	// The daemon prints "tuned: listening on ADDR (...)" once bound.
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "tuned: listening on "); ok {
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address: %v", sc.Err())
	}
	go func() { // keep draining so the daemon never blocks on a full pipe
		for sc.Scan() {
		}
	}()

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("daemon not healthy: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon not healthy: /healthz answers %s", resp.Status)
	}
	c := NewClient(addr, ClientOptions{})

	// Load the fixture through the client's batch path and replay the
	// golden workload: answers must match the committed transcript exactly.
	c.Record(FixtureRecords()...)
	if n, err := c.Flush(); n != 50 || err != nil {
		t.Fatalf("fixture upload delivered %d records, error %v; want 50, nil", n, err)
	}
	want := loadGoldenTranscript(t)
	// A fresh client so every lookup hits the daemon, not the write-through
	// cache the batch upload warmed.
	c2 := NewClient(addr, ClientOptions{})
	for i, q := range FixtureQueries(0, len(want)) {
		rec, found, err := c2.Lookup(q.Key, q.Env)
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

	// Graceful shutdown flushes the snapshot; the restored store must serve
	// the same content.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s of SIGTERM")
	}
	st, err := Open(StoreOptions{SnapshotPath: snapshot})
	if err != nil {
		t.Fatalf("restore snapshot: %v", err)
	}
	if st.Len() != 50 {
		t.Fatalf("restored snapshot has %d records, want 50", st.Len())
	}
	for _, rec := range FixtureRecords() {
		got, ok := st.Lookup(rec.Key, rec.Env)
		if !ok || got != rec {
			t.Fatalf("restored record %q/%q = %+v ok=%v, want %+v", rec.Key, rec.Env, got, ok, rec)
		}
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}
