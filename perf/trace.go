package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer (or a pass/op
// grouping such calls). Spans are kept in memory and written at exit.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name"`
	Pass   int     `json:"pass"`     // per-pass identifier shared by a pass's spans; -1 outside passes
	Start  float64 `json:"start_us"` // microseconds since the tracer was created
	End    float64 `json:"end_us"`
}

// tracer records spans. A nil *tracer is the untraced run: every method is
// a no-op, so workloads call it unconditionally.
type tracer struct {
	mu    sync.Mutex // kb-mixed's clients record concurrently
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span now and returns its id (-1 on a nil tracer).
func (t *tracer) begin(parent int, name string, pass int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Pass: pass, Start: t.us(now), End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = t.us(now)
	t.mu.Unlock()
}

// add records a span whose boundaries were observed elsewhere (the runner's
// progress lines give a scenario's completion time, not a call to wrap).
func (t *tracer) add(parent int, name string, pass int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Pass: pass, Start: t.us(start), End: t.us(end)})
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by child spans. Children of one parent may overlap in time
// (concurrent clients), so the covered part is the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := map[string]float64{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, upto := 0.0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, upto), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// write stores the spans as Chrome trace-event JSON (load in
// chrome://tracing or ui.perfetto.dev), the raw span list, and the
// self-time table.
func (t *tracer) write(dir string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		// One track per pass keeps concurrent request spans from
		// different passes apart; nesting within a track is by time.
		events[i] = event{Name: s.Name, Ph: "X", Ts: s.Start, Dur: s.End - s.Start, Pid: 1, Tid: s.Pass + 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "pass": s.Pass}}
	}
	if err := writeJSON(filepath.Join(dir, "trace.json"), map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), t.spans); err != nil {
		return err
	}
	self := selfTimes(t.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "# self time by span name (span minus children)\n# %-38s %14s\n", "span", "self_ms")
	for _, n := range names {
		fmt.Fprintf(&b, "# %-38s %14.3f\n", n, self[n]/1e3)
	}
	fmt.Print(b.String())
	return os.WriteFile(filepath.Join(dir, "selftime.txt"), []byte(b.String()), 0o644)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuBuckets are the layers CPU-profile samples are attributed to, by the
// package of the innermost function of each sample (flat time). bench also
// takes runner and stats; runtime.sched is goroutine hand-off (futex, park,
// ready, channel operations, the scheduler loop and its clock reads,
// goroutine creation); everything else — allocation, maps, net/http,
// encoding/json, syscalls — lands in other.
var cpuBuckets = []string{
	"sim.cpu", "netmodel.cpu", "mpi.cpu", "nbc.cpu", "core.cpu", "fft.cpu", "bench.cpu", "kb.cpu",
	"runtime.sched_cpu", "runtime.gc_cpu", "other.cpu",
}

var schedFuncs = []string{
	"futex", "park", "ready", "chansend", "chanrecv", "schedule", "findRunnable", "runq", "wakep", "startm", "stopm",
	"notesleep", "notewakeup", "notetsleep", "mcall", "gosched", "execute", "osyield", "procyield", "usleep", "stealWork",
	"pidleget", "pidleput", "mPark", "resetspinning", "checkTimers", "netpoll", "lock2", "unlock2", "casgstatus", "gogo", "sellock", "selectgo",
	"send", "recv", "(*waitq)", "(*guintptr)", "(*timers)", "acquirep", "releasep", "handoffp", "injectglist", "globrunq", "(*sudog)", "acquireSudog", "releaseSudog",
	"chan", "nanotime", "systemstack", "dropg", "goexit", "newproc", "gfget", "gfput", "malg",
}

var gcFuncs = []string{"gc", "scan", "mark", "sweep", "greyobject", "bgscavenge", "wbBuf", "(*gcWork)", "(*mspan).sweep", "(*sweepLocked)", "findObject", "spanOf", "heapBits", "typePointers"}

// bucketOf maps a fully qualified function name to a CPU bucket.
func bucketOf(fn string) string {
	for _, layer := range []string{"sim", "netmodel", "mpi", "nbc", "core", "fft", "kb"} {
		if strings.HasPrefix(fn, "nbctune/internal/"+layer+".") {
			return layer + ".cpu"
		}
	}
	for _, pkg := range []string{"bench", "runner", "stats"} {
		if strings.HasPrefix(fn, "nbctune/internal/"+pkg+".") {
			return "bench.cpu"
		}
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, p := range gcFuncs {
			if strings.HasPrefix(rest, p) {
				return "runtime.gc_cpu"
			}
		}
		for _, p := range schedFuncs {
			if strings.HasPrefix(rest, p) {
				return "runtime.sched_cpu"
			}
		}
	}
	if strings.HasPrefix(fn, "runtime/internal/syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") {
		// The raw syscall stub: under a simulator workload this is the
		// futex call of a goroutine hand-off.
		return "runtime.sched_cpu"
	}
	return "other.cpu"
}

// bucketProfile parses a runtime/pprof CPU profile (gzipped protobuf) with
// the few fields needed — samples, locations, functions, strings — and
// returns each bucket's share of the sampled CPU time.
func bucketProfile(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]int64{} // function id -> string table index
	var strs []string
	err = protoFields(data, func(field int, varint uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			if err := protoFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1: // location_id: the first is the leaf
					ids := protoPacked(v, m)
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2: // value: [sample count, cpu nanoseconds]
					if vs := protoPacked(v, m); len(vs) > 0 {
						s.value = int64(vs[len(vs)-1])
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			if err := protoFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first entry is the innermost inlined callee
					if !haveLine {
						haveLine = true
						return protoFields(m, func(lf int, lv uint64, _ []byte) error {
							if lf == 1 {
								fn = lv
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := protoFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; idx > 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		shares[bucketOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(field int, varint uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := protoVarint(b)
		if n == 0 {
			return fmt.Errorf("protobuf: truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := protoVarint(b)
			if n == 0 {
				return fmt.Errorf("protobuf: truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("protobuf: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := protoVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("protobuf: truncated bytes field")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("protobuf: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf: unsupported wire type %d", wire)
		}
	}
	return nil
}

// protoPacked returns a repeated integer field's values whether it arrived
// packed (msg non-nil) or as a single varint.
func protoPacked(varint uint64, msg []byte) []uint64 {
	if msg == nil {
		return []uint64{varint}
	}
	var out []uint64
	for len(msg) > 0 {
		v, n := protoVarint(msg)
		if n == 0 {
			break
		}
		out = append(out, v)
		msg = msg[n:]
	}
	return out
}

func protoVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
