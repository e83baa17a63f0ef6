package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// iv is a compact interval literal for building timelines by hand.
type iv struct {
	s      State
	t0, t1 float64
}

// op is a compact operation-span literal.
type op struct {
	t0, t1 float64
}

// TestOverlapDerivation drives the overlap-ratio math from hand-built
// timelines, including every degenerate case the metric must get right.
func TestOverlapDerivation(t *testing.T) {
	cases := []struct {
		name     string
		states   []iv
		ops      []op
		wantWall float64
		wantHid  float64
		wantOv   float64
	}{
		{
			name:     "fully overlapped: compute covers the whole op",
			states:   []iv{{StateCompute, 0, 10}},
			ops:      []op{{2, 8}},
			wantWall: 6, wantHid: 6, wantOv: 1,
		},
		{
			name:     "half hidden",
			states:   []iv{{StateCompute, 0, 5}, {StateBlocked, 5, 10}},
			ops:      []op{{0, 10}},
			wantWall: 10, wantHid: 5, wantOv: 0.5,
		},
		{
			name:     "zero communication reports overlap 0",
			states:   []iv{{StateCompute, 0, 10}},
			ops:      nil,
			wantWall: 0, wantHid: 0, wantOv: 0,
		},
		{
			name:     "zero compute reports overlap 0",
			states:   []iv{{StateMPI, 0, 1}, {StateBlocked, 1, 9}, {StateMPI, 9, 10}},
			ops:      []op{{0, 10}},
			wantWall: 10, wantHid: 0, wantOv: 0,
		},
		{
			name:     "fully serialized run reports overlap 0",
			states:   []iv{{StateMPI, 0, 4}, {StateBlocked, 4, 6}, {StateCompute, 6, 16}},
			ops:      []op{{0, 6}}, // compute strictly after Wait
			wantWall: 6, wantHid: 0, wantOv: 0,
		},
		{
			name:     "overlapping ops union, not double count",
			states:   []iv{{StateCompute, 0, 10}},
			ops:      []op{{0, 6}, {4, 10}}, // union is [0,10], not 12
			wantWall: 10, wantHid: 10, wantOv: 1,
		},
		{
			name:     "compute split across the op boundary",
			states:   []iv{{StateCompute, 0, 3}, {StateMPI, 3, 4}, {StateCompute, 4, 7}, {StateBlocked, 7, 9}},
			ops:      []op{{2, 9}},
			wantWall: 7, wantHid: 4, wantOv: 4.0 / 7.0, // [2,3] + [4,7]
		},
		{
			name:     "open op span is ignored",
			states:   []iv{{StateCompute, 0, 10}},
			ops:      []op{{3, -1}}, // never ended
			wantWall: 0, wantHid: 0, wantOv: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder(1)
			for _, x := range tc.states {
				r.StateSpan(0, x.s, x.t0, x.t1)
			}
			for _, o := range tc.ops {
				id := r.OpBegin(0, "ibcast-test", o.t0)
				if o.t1 > o.t0 {
					r.OpEnd(0, id, o.t1)
				}
			}
			m := r.Metrics()
			rm := m.Ranks[0]
			if !approx(rm.CommWall, tc.wantWall) {
				t.Errorf("CommWall = %v, want %v", rm.CommWall, tc.wantWall)
			}
			if !approx(rm.Hidden, tc.wantHid) {
				t.Errorf("Hidden = %v, want %v", rm.Hidden, tc.wantHid)
			}
			if !approx(rm.Overlap, tc.wantOv) {
				t.Errorf("Overlap = %v, want %v", rm.Overlap, tc.wantOv)
			}
			if !approx(rm.Exposed, tc.wantWall-tc.wantHid) {
				t.Errorf("Exposed = %v, want %v", rm.Exposed, tc.wantWall-tc.wantHid)
			}
			if !approx(m.Overlap, tc.wantOv) {
				t.Errorf("aggregate Overlap = %v, want %v", m.Overlap, tc.wantOv)
			}
		})
	}
}

// TestAggregateOverlapWeighting checks that the aggregate ratio weights by
// comm wall time instead of averaging per-rank ratios.
func TestAggregateOverlapWeighting(t *testing.T) {
	r := NewRecorder(2)
	// Rank 0: 10s of comm, fully hidden.
	r.StateSpan(0, StateCompute, 0, 10)
	r.OpEnd(0, r.OpBegin(0, "a", 0), 10)
	// Rank 1: 2s of comm, fully exposed.
	r.StateSpan(1, StateBlocked, 0, 2)
	r.OpEnd(1, r.OpBegin(1, "a", 0), 2)
	m := r.Metrics()
	want := 10.0 / 12.0 // not (1.0+0.0)/2
	if !approx(m.Overlap, want) {
		t.Errorf("aggregate Overlap = %v, want %v", m.Overlap, want)
	}
}

func TestProgressAccounting(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 7; i++ {
		r.ProgressCall(0)
	}
	r.ProgressAdvanced(0)
	r.ProgressAdvanced(0)
	r.ProgressCall(1)
	m := r.Metrics()
	if m.Ranks[0].ProgressCalls != 7 || m.Ranks[0].ProgressAdvanced != 2 {
		t.Errorf("rank0 progress = %d/%d, want 7/2", m.Ranks[0].ProgressCalls, m.Ranks[0].ProgressAdvanced)
	}
	if m.ProgressCalls != 8 || m.ProgressAdvanced != 2 {
		t.Errorf("aggregate progress = %d/%d, want 8/2", m.ProgressCalls, m.ProgressAdvanced)
	}
}

func TestStateCoalescing(t *testing.T) {
	r := NewRecorder(1)
	r.StateSpan(0, StateMPI, 0, 1)
	r.StateSpan(0, StateMPI, 1, 2) // contiguous, same state: coalesce
	r.StateSpan(0, StateMPI, 3, 4) // gap: new interval
	r.StateSpan(0, StateCompute, 4, 5)
	got := r.ranks[0].intervals
	if len(got) != 3 {
		t.Fatalf("got %d intervals, want 3: %+v", len(got), got)
	}
	if got[0] != (Interval{StateMPI, 0, 2}) {
		t.Errorf("coalesced interval = %+v", got[0])
	}
}

func TestRendezvousStallAndBytes(t *testing.T) {
	r := NewRecorder(1)
	r.RendezvousStall(0, 0.25)
	r.RendezvousStall(0, 0.75)
	r.RendezvousStall(0, 0) // non-positive: ignored
	r.AlgoBytes(0, "ibcast-binomial", 100)
	r.AlgoBytes(0, "ibcast-binomial", 28)
	m := r.Metrics()
	if m.RendezvousStalls != 2 || !approx(m.RendezvousStallTime, 1.0) {
		t.Errorf("stalls = %d/%v, want 2/1.0", m.RendezvousStalls, m.RendezvousStallTime)
	}
	if m.BytesByAlgo["ibcast-binomial"] != 128 {
		t.Errorf("bytes = %d, want 128", m.BytesByAlgo["ibcast-binomial"])
	}
}

func TestNICMetrics(t *testing.T) {
	r := NewRecorder(1)
	r.EnsureNodes(2)
	r.NIC(0, 0, TX, 0, 2, 100)
	r.NIC(0, 1, TX, 1, 2, 50)
	r.NIC(1, 0, RX, 0, 3, 150)
	m := r.Metrics()
	if len(m.NIC) != 2 {
		t.Fatalf("got %d NIC nodes, want 2", len(m.NIC))
	}
	if !approx(m.NIC[0].TxBusy, 3) || m.NIC[0].TxBytes != 150 {
		t.Errorf("node0 tx = %v/%d, want 3/150", m.NIC[0].TxBusy, m.NIC[0].TxBytes)
	}
	if !approx(m.NIC[1].RxBusy, 3) || m.NIC[1].RxBytes != 150 {
		t.Errorf("node1 rx = %v/%d, want 3/150", m.NIC[1].RxBusy, m.NIC[1].RxBytes)
	}
}

// TestNilRecorder pins the zero-cost-when-disabled contract: every method
// must be a no-op (not a panic) on a nil receiver.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.StateSpan(0, StateCompute, 0, 1)
	if id := r.OpBegin(0, "x", 0); id != -1 {
		t.Errorf("nil OpBegin = %d, want -1", id)
	}
	r.OpEnd(0, -1, 1)
	r.MarkInstant(0, "x", 0)
	r.ProgressCall(0)
	r.ProgressAdvanced(0)
	r.RendezvousStall(0, 1)
	r.AlgoBytes(0, "x", 1)
	r.NIC(0, 0, TX, 0, 1, 1)
	m := r.Metrics()
	if m.Overlap != 0 || len(m.Ranks) != 0 {
		t.Errorf("nil Metrics() = %+v", m)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var a *Audit
	a.Sample(0, 1)
	a.Estimate(0, 1, "")
	a.Prune("", nil)
	a.Phase("")
	a.Decide(0, 0)
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRecorder(2)
	r.StateSpan(0, StateCompute, 0, 0.010)
	r.StateSpan(0, StateMPI, 0.010, 0.011)
	r.OpEnd(0, r.OpBegin(0, "ibcast-binomial", 0.002), 0.011)
	r.MarkInstant(0, "round 1", 0.005)
	r.EnsureNodes(1)
	r.NIC(0, 0, TX, 0.003, 0.004, 1024)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var sawState, sawOp, sawMark, sawNIC bool
	for _, ev := range doc.TraceEvents {
		switch ev["cat"] {
		case "state":
			sawState = true
			if ev["name"] == "compute" && ev["dur"].(float64) != 10000 {
				t.Errorf("compute dur = %v µs, want 10000", ev["dur"])
			}
		case "op":
			sawOp = true
		case "round":
			sawMark = true
			if ev["ph"] != "i" {
				t.Errorf("mark ph = %v, want i", ev["ph"])
			}
		case "nic":
			sawNIC = true
		}
	}
	if !sawState || !sawOp || !sawMark || !sawNIC {
		t.Errorf("missing event categories: state=%v op=%v mark=%v nic=%v", sawState, sawOp, sawMark, sawNIC)
	}
	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated export differs")
	}
}

func TestAuditLog(t *testing.T) {
	a := NewAudit("brute-force", []string{"lin", "binom"})
	a.Sample(0, 3.0)
	a.Sample(1, 1.0)
	a.Sample(0, 3.2)
	a.Sample(1, 1.1)
	a.Estimate(0, 3.1, "kept 2/2")
	a.Estimate(1, 1.05, "kept 2/2")
	a.Decide(1, 4)
	if ev := a.Events[2]; ev.Kind != AuditSample || ev.Fn != 0 || ev.Value != 3.2 {
		t.Errorf("third event = %+v, want the second sample of fn 0", ev)
	}
	if ev := a.Events[len(a.Events)-1]; ev.Kind != AuditDecide || ev.Fn != 1 {
		t.Errorf("last event = %+v, want the decision for fn 1", ev)
	}
	for i, ev := range a.Events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if a.Events[1].Name != "binom" {
		t.Errorf("event name = %q, want binom", a.Events[1].Name)
	}
	enc, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Audit
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("audit JSON round trip: %v", err)
	}
	if back.Selector != "brute-force" || len(back.Events) != len(a.Events) {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if !strings.Contains(string(enc), "\"kind\": \"decide\"") {
		t.Error("decide event missing from JSON")
	}
}

// TestChromeTraceStreams: the export encodes one event at a time, so no copy
// of the document builds up in the heap: when its first bytes reach the
// writer, HeapInuse has grown by less than a tenth of what the export writes
// in the end. The bytes are those of the whole-document encoder the export
// replaced (wholeChromeTrace, kept as the oracle).
func TestChromeTraceStreams(t *testing.T) {
	const ranks, spans = 16, 1000
	r := NewRecorder(ranks)
	r.EnsureNodes(ranks / 4)
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < spans; i++ {
			t0 := float64(i) * 1e-5
			r.StateSpan(rank, State(i%3), t0, t0+1e-5)
			r.OpEnd(rank, r.OpBegin(rank, "ialltoall-<linear>&", t0), t0+2e-5)
			r.MarkInstant(rank, "round 1", t0)
			r.NIC(rank/4, rank%4, Dir(i%2), t0, t0+3e-6, 1024+i)
		}
	}
	r.OpBegin(0, "left open", 1) // no duration: not exported
	var want bytes.Buffer
	if err := wholeChromeTrace(r, &want); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	probe := &heapProbe{base: ms.HeapInuse}
	if err := r.WriteChromeTrace(probe); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(probe.out.Bytes(), want.Bytes()) {
		t.Fatalf("streamed export (%d B) differs from the whole-document encoding (%d B)", probe.out.Len(), want.Len())
	}
	if limit := uint64(probe.out.Len() / 10); probe.grown >= limit {
		t.Errorf("HeapInuse grew %d B before the first write of a %d B export (limit %d)", probe.grown, probe.out.Len(), limit)
	}
	var empty bytes.Buffer
	if err := wholeChromeTrace(nil, &empty); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := (*Recorder)(nil).WriteChromeTrace(&got); err != nil || !bytes.Equal(got.Bytes(), empty.Bytes()) {
		t.Errorf("nil recorder exported %q (%v), want %q", got.Bytes(), err, empty.Bytes())
	}
}

// heapProbe keeps what is written to it and reads HeapInuse at the first
// write, as its growth over base.
type heapProbe struct {
	base, grown uint64
	out         bytes.Buffer
}

func (p *heapProbe) Write(b []byte) (int, error) {
	if p.out.Len() == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > p.base {
			p.grown = ms.HeapInuse - p.base
		}
	}
	return p.out.Write(b)
}

// wholeChromeTrace is the former export: every event built first, a map of
// arguments each, then the whole document encoded in memory.
func wholeChromeTrace(r *Recorder, w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Cat  string         `json:"cat,omitempty"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	complete := func(name string, pid, tid int, t0, t1 float64, cat string, args map[string]any) event {
		dur := (t1 - t0) * usPerSec
		return event{Name: name, Ph: "X", Pid: pid, Tid: tid, Ts: t0 * usPerSec, Dur: &dur, Cat: cat, Args: args}
	}
	metaName := func(kind string, pid, tid int, name string) event {
		return event{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
	}
	var evs []event
	if r != nil {
		evs = append(evs,
			metaName("process_name", pidRanks, 0, "rank states"),
			metaName("process_name", pidOps, 0, "collectives"),
		)
		for rank := range r.ranks {
			evs = append(evs,
				metaName("thread_name", pidRanks, rank, fmt.Sprintf("rank %d", rank)),
				metaName("thread_name", pidOps, rank, fmt.Sprintf("rank %d", rank)),
			)
		}
		for rank := range r.ranks {
			tl := &r.ranks[rank]
			for _, iv := range tl.intervals {
				evs = append(evs, complete(iv.State.String(), pidRanks, rank, iv.Start, iv.End, "state", nil))
			}
			for _, op := range tl.ops {
				if op.End <= op.Start {
					continue
				}
				evs = append(evs, complete(op.Name, pidOps, rank, op.Start, op.End, "op", nil))
			}
		}
		for rank := range r.ranks {
			for _, mk := range r.ranks[rank].marks {
				evs = append(evs, event{
					Name: mk.Name, Ph: "i", Pid: pidOps, Tid: mk.Rank,
					Ts: mk.T * usPerSec, S: "t", Cat: "round",
				})
			}
		}
		for node, spans := range r.nicByNode {
			if len(spans) == 0 {
				continue
			}
			pid := pidNIC + node
			evs = append(evs, metaName("process_name", pid, 0, fmt.Sprintf("node %d NIC", node)))
			for _, s := range spans {
				tid := s.Channel*2 + int(s.Dir)
				name := fmt.Sprintf("%s %dB", s.Dir, s.Bytes)
				evs = append(evs, complete(name, pid, tid, s.Start, s.End, "nic",
					map[string]any{"bytes": s.Bytes, "channel": s.Channel, "dir": s.Dir.String()}))
			}
		}
	}
	out := struct {
		TraceEvents []event `json:"traceEvents"`
		DisplayUnit string  `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayUnit: "ms"}
	if out.TraceEvents == nil {
		out.TraceEvents = []event{}
	}
	return json.NewEncoder(w).Encode(out)
}
