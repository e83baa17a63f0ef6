package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// mustKey fingerprints parts or fails the test.
func mustKey(t *testing.T, parts ...any) string {
	t.Helper()
	k, err := Fingerprint(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	// Later jobs finish first (earlier jobs sleep longer); results must
	// still come back indexed by submission order with the right values.
	const n = 8
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			Label: fmt.Sprintf("job-%d", i),
			Run: func() (any, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * 10, nil
			},
		}
	}
	rs, err := Run(jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != n {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Index != i || r.Label != fmt.Sprintf("job-%d", i) {
			t.Fatalf("result %d misplaced: %+v", i, r)
		}
		var v int
		if err := r.Decode(&v); err != nil {
			t.Fatal(err)
		}
		if v != i*10 {
			t.Fatalf("result %d = %d, want %d", i, v, i*10)
		}
		if r.Cached {
			t.Fatalf("result %d served from a cache that was not configured", i)
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	rs, err := Run(nil, Options{})
	if err != nil || len(rs) != 0 {
		t.Fatalf("rs=%v err=%v", rs, err)
	}
}

func TestCacheHitAndMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int32
	mk := func() []Job {
		var jobs []Job
		for i := 0; i < 4; i++ {
			i := i
			jobs = append(jobs, Job{
				Label: fmt.Sprintf("cached-%d", i),
				Key:   mustKey(t, "cache-test", i),
				Run: func() (any, error) {
					executions.Add(1)
					return map[string]int{"value": i}, nil
				},
			})
		}
		return jobs
	}

	rs, err := Run(mk(), Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Cached {
			t.Fatalf("cold run served a hit: %+v", r)
		}
	}
	if got := executions.Load(); got != 4 {
		t.Fatalf("cold run executed %d jobs", got)
	}
	if ents, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(ents) != 4 {
		t.Fatalf("store has %d entries, want 4", len(ents))
	}

	rs2, err := Run(mk(), Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs2 {
		if !r.Cached {
			t.Fatalf("warm run missed on job %d: %+v", i, r)
		}
		if !bytes.Equal(r.Value, rs[i].Value) {
			t.Fatalf("warm value differs: %s vs %s", r.Value, rs[i].Value)
		}
	}
	if got := executions.Load(); got != 4 {
		t.Fatalf("warm run re-executed: %d total executions", got)
	}
}

func TestResumeAfterSimulatedInterrupt(t *testing.T) {
	// Simulate a sweep interrupted after 3 of 6 scenarios: the first Run
	// sees only a prefix of the jobs (as if the process died), the second
	// sees all of them and must re-execute only the missing suffix.
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int32
	mk := func(n int) []Job {
		var jobs []Job
		for i := 0; i < n; i++ {
			i := i
			jobs = append(jobs, Job{
				Label: fmt.Sprintf("scenario-%d", i),
				Key:   mustKey(t, "resume-test", i),
				Run: func() (any, error) {
					executions.Add(1)
					return i, nil
				},
			})
		}
		return jobs
	}
	if _, err := Run(mk(6)[:3], Options{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	rs, err := Run(mk(6), Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if want := i < 3; r.Cached != want {
			t.Fatalf("job %d cached=%v, want %v", i, r.Cached, want)
		}
	}
	if got := executions.Load(); got != 6 {
		t.Fatalf("executed %d jobs total, want 6 (3 + 3 resumed)", got)
	}
}

// TestPanicBecomesError: a panicking job fails its own result and the run,
// not the process, and the other jobs still complete.
func TestPanicBecomesError(t *testing.T) {
	jobs := []Job{
		{Label: "doomed", Run: func() (any, error) { panic("always") }},
		{Label: "fine", Run: func() (any, error) { return 1, nil }},
	}
	rs, err := Run(jobs, Options{Workers: 1})
	if err == nil {
		t.Fatal("panicked job reported no error")
	}
	if !strings.Contains(err.Error(), "panic: always") || !strings.Contains(err.Error(), "doomed") {
		t.Fatalf("error = %v", err)
	}
	if rs[0].Err == nil || rs[1].Err != nil {
		t.Fatalf("results: %+v", rs)
	}
}

func TestFirstErrorByIndexIsDeterministic(t *testing.T) {
	// Two failures racing on many workers: the reported error must always
	// be the lowest-indexed one.
	mkFail := func(name string, delay time.Duration) Job {
		return Job{Label: name, Run: func() (any, error) {
			time.Sleep(delay)
			return nil, fmt.Errorf("%s failed", name)
		}}
	}
	jobs := []Job{
		{Label: "fine", Run: func() (any, error) { return 1, nil }},
		mkFail("early-index-slow", 20*time.Millisecond),
		mkFail("late-index-fast", 0),
	}
	_, err := Run(jobs, Options{Workers: 3})
	if err == nil || !strings.Contains(err.Error(), "early-index-slow") {
		t.Fatalf("error = %v", err)
	}
}

func TestUnmarshalableResultFails(t *testing.T) {
	jobs := []Job{{Label: "chan", Run: func() (any, error) { return make(chan int), nil }}}
	_, err := Run(jobs, Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "encode result") {
		t.Fatalf("error = %v", err)
	}
}

func TestProgressLines(t *testing.T) {
	var buf bytes.Buffer
	jobs := []Job{
		{Label: "a", Run: func() (any, error) { return 1, nil },
			Note: func(v json.RawMessage) string { return "note-for-" + string(v) }},
		{Label: "b", Run: func() (any, error) { return 2, nil }},
	}
	if _, err := Run(jobs, Options{Workers: 1, Progress: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d progress lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "[  1/  2]") || !strings.Contains(out, "[  2/  2]") {
		t.Fatalf("missing counters:\n%s", out)
	}
	if !strings.Contains(out, "note-for-1") {
		t.Fatalf("note not rendered:\n%s", out)
	}
	if !strings.Contains(lines[1], "eta=done") {
		t.Fatalf("final line has no eta=done:\n%s", out)
	}
}

func TestFingerprintStability(t *testing.T) {
	type spec struct {
		Name string
		N    int
	}
	a1 := mustKey(t, spec{"x", 1}, []string{"s1", "s2"})
	a2 := mustKey(t, spec{"x", 1}, []string{"s1", "s2"})
	if a1 != a2 {
		t.Fatal("equal inputs gave different fingerprints")
	}
	if len(a1) != 64 {
		t.Fatalf("fingerprint length %d", len(a1))
	}
	if b := mustKey(t, spec{"x", 2}, []string{"s1", "s2"}); b == a1 {
		t.Fatal("different inputs collided")
	}
	// Length framing: the split point between parts must matter.
	if mustKey(t, "ab", "c") == mustKey(t, "a", "bc") {
		t.Fatal("part boundaries not framed")
	}
	if _, err := Fingerprint(make(chan int)); err == nil {
		t.Fatal("unmarshalable part accepted")
	}
}

func TestCacheRejectsCorruptAndForeignEntries(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, "corrupt-test")
	// Truncated write, as if a crash happened without the atomic rename.
	if err := os.WriteFile(cache.Path(key), []byte(`{"key":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	// Entry whose recorded key disagrees with its address.
	other := mustKey(t, "other")
	b, _ := json.Marshal(cacheEntry{Key: other, Build: cache.build, Value: json.RawMessage(`1`)})
	if err := os.WriteFile(cache.Path(key), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("mismatched entry served as a hit")
	}
	// A Put over the bad entry must repair it.
	if err := cache.Put(key, "fixed", json.RawMessage(`42`)); err != nil {
		t.Fatal(err)
	}
	raw, ok := cache.Get(key)
	if !ok || string(raw) != "42" {
		t.Fatalf("repaired entry: ok=%v raw=%s", ok, raw)
	}
}

// TestCacheEntriesCarryTheBuild: an entry records the SHA-256 of the
// executable that opened the store; an entry of any other build is a miss
// however well it matches otherwise, and Put repairs it.
func TestCacheEntriesCarryTheBuild(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bin)
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, "build-test")
	entry := func() cacheEntry {
		t.Helper()
		var e cacheEntry
		b, err := os.ReadFile(cache.Path(key))
		if err == nil {
			err = json.Unmarshal(b, &e)
		}
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if err := cache.Put(key, "lbl", json.RawMessage(`7`)); err != nil {
		t.Fatal(err)
	}
	e := entry()
	if want := hex.EncodeToString(sum[:]); e.Build != want {
		t.Fatalf("entry written by build %q, want the test binary's %q", e.Build, want)
	}
	for _, other := range []string{"", strings.Repeat("0", 64), e.Build[:63] + "x"} {
		e.Build = other
		b, _ := json.Marshal(e)
		if err := os.WriteFile(cache.Path(key), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, ok := cache.Get(key); ok {
			t.Fatalf("entry of build %q served as a hit: %s", other, v)
		}
		if err := cache.Put(key, "lbl", json.RawMessage(`7`)); err != nil {
			t.Fatal(err)
		}
		if v, ok := cache.Get(key); !ok || string(v) != "7" {
			t.Fatalf("repaired entry: ok=%v value=%s", ok, v)
		}
	}
}

// TestWriteFileAtomicReplaces: a write replaces the file whole, mode 0644,
// creating its directory; a write that fails leaves the previous file as it
// was and no temp file beside it.
func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "f")
	write := func(data string, err error) error {
		return WriteFileAtomic(path, func(w io.Writer) error {
			if _, werr := io.WriteString(w, data); werr != nil {
				return werr
			}
			return err
		})
	}
	if err := write("one", nil); err != nil {
		t.Fatal(err)
	}
	if err := write("two", nil); err != nil {
		t.Fatal(err)
	}
	interrupted := errors.New("interrupted")
	if err := write("thr", interrupted); !errors.Is(err, interrupted) {
		t.Fatalf("failed write returned %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Fatalf("content = %q, want two", data)
	}
	info, _ := os.Stat(path)
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("perm = %v, want 0644", info.Mode().Perm())
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 1 {
		t.Fatalf("directory holds %d files, want only f", len(ents))
	}
}

// TestWriteJSON: an artifact is the bytes json.Encoder with a two-space
// indent writes, the form the committed files were written in, and a value
// that cannot be encoded leaves no file.
func TestWriteJSON(t *testing.T) {
	v := map[string]any{"b": []int{1, 2}, "a": "<x>", "c": map[string]float64{}}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.json")
	if err := WriteJSON(path, v); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("WriteJSON wrote %q (%v), want %q", got, err, want.Bytes())
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := WriteJSON(bad, func() {}); err == nil {
		t.Fatal("WriteJSON encoded a func")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("a failed WriteJSON left %s (%v)", bad, err)
	}
}

func TestCachePutIsAtomic(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, "atomic")
	if err := cache.Put(key, "lbl", json.RawMessage(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	if got := cache.Path(key); filepath.Dir(got) != dir {
		t.Fatalf("entry path %s outside store", got)
	}
	if len(ents) != 1 {
		t.Fatalf("store has %d files, want the one entry", len(ents))
	}
}

func TestOpenCacheEmptyDirRejected(t *testing.T) {
	if _, err := OpenCache(""); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := OpenCache("-fast"); err == nil || !strings.Contains(err.Error(), "looks like a flag") {
		t.Fatalf("a flag taken for a directory: %v", err)
	}
}
