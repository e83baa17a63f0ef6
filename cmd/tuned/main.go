// Command tuned is the tuning knowledge-base daemon: it serves the shared
// store of ADCL tuning decisions (internal/kb) over HTTP+JSON so every
// tuner on a machine — or a cluster's login node — reuses winners any
// other run already learned, instead of each process relearning from its
// private history file.
//
//	tuned                                  # listen on 127.0.0.1:7070
//	tuned -addr 127.0.0.1:0                # pick a free port (printed)
//	tuned -snapshot results/kb.json        # persistence location
//
// The store loads its snapshot at start, flushes it atomically (temp file
// + rename) every two seconds when dirty and again on shutdown, and
// exits cleanly on SIGINT/SIGTERM after draining in-flight requests.
//
// Endpoints: GET /v1/lookup, POST /v1/record, POST /v1/batch,
// GET /v1/stats, GET /healthz.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"

	"nbctune/internal/kb"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address (host:0 picks a free port)")
		snapshot = flag.String("snapshot", "results/kb_snapshot.json", "snapshot file for persistence (empty disables)")
		quiet    = flag.Bool("quiet", false, "disable the per-request access log")
	)
	flag.Parse()

	// Serving posture: a tuning KB is tiny (thousands of small records) but
	// latency-sensitive, so trade heap headroom for fewer GC cycles on the
	// request path.
	debug.SetGCPercent(400)

	if *snapshot != "" {
		if dir := filepath.Dir(*snapshot); dir != "." && dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail(err)
			}
		}
	}
	st, err := kb.Open(kb.StoreOptions{SnapshotPath: *snapshot})
	if err != nil {
		fail(err)
	}

	var accessLog io.Writer
	if !*quiet {
		accessLog = os.Stderr
	}
	srv, err := kb.Listen(*addr, st, kb.HandlerOptions{AccessLog: accessLog})
	if err != nil {
		fail(err)
	}
	if *snapshot != "" {
		if err := st.StartAutoFlush(); err != nil {
			fail(err)
		}
	}
	srv.Serve()
	// The listening line goes to stdout unbuffered so scripts (and
	// TestKBSmoke) can start with -addr :0 and parse the bound port.
	fmt.Printf("tuned: listening on %s (%d records loaded, snapshot %s)\n",
		srv.Addr, st.Len(), snapshotName(*snapshot))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("tuned: %s — draining and flushing\n", s)
	if err := srv.Shutdown(5 * time.Second); err != nil {
		fail(err)
	}
	fmt.Printf("tuned: stopped (%d records)\n", st.Len())
}

func snapshotName(path string) string {
	if path == "" {
		return "disabled"
	}
	return path
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tuned:", err)
	os.Exit(1)
}
