package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Exporters: Chrome trace-event JSON (loadable by Perfetto and
// chrome://tracing) for the timelines, and flat indented JSON for the
// derived metrics. Output is deterministic: events are emitted in a fixed
// canonical order (metadata, then states and ops per rank, then marks per
// rank, then NIC spans per node), so two identical runs export byte-identical
// files — including PDES runs at different shard counts, whose per-rank and
// per-node streams are identical even though global recording order is not.

// Process ids used in the trace. Each simulated concept gets its own trace
// "process" so Perfetto groups the tracks.
const (
	pidRanks = 0 // rank state timelines, one thread per rank
	pidOps   = 1 // collective-operation spans + round marks, one thread per rank
	pidNIC   = 2 // NIC channel occupancy, one process per node, offset by node
)

// traceEvent is one entry of the Chrome trace-event format. Ts and Dur are
// in microseconds. Args is nil, a nameArgs or a nicArgs: structs whose
// fields encode in the order a map's sorted keys would.
type traceEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Cat  string   `json:"cat,omitempty"`
	S    string   `json:"s,omitempty"`
	Args any      `json:"args,omitempty"`
}

type nameArgs struct {
	Name string `json:"name"`
}

type nicArgs struct {
	Bytes   int    `json:"bytes"`
	Channel int    `json:"channel"`
	Dir     string `json:"dir"`
}

const usPerSec = 1e6

func complete(name string, pid, tid int, t0, t1 float64, cat string, args any) traceEvent {
	dur := (t1 - t0) * usPerSec
	return traceEvent{Name: name, Ph: "X", Pid: pid, Tid: tid, Ts: t0 * usPerSec, Dur: &dur, Cat: cat, Args: args}
}

func metaName(kind string, pid, tid int, name string) traceEvent {
	return traceEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: nameArgs{name}}
}

// WriteChromeTrace writes the recorded timelines in Chrome trace-event JSON.
// Open the file at https://ui.perfetto.dev or chrome://tracing. Safe on a
// nil recorder (writes an empty trace). Events are encoded one at a time
// through a buffered writer, so a trace of hundreds of megabytes is never
// held in memory whole.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var one bytes.Buffer
	enc := json.NewEncoder(&one)
	var err error
	sep := ""
	emit := func(ev traceEvent) {
		if err != nil {
			return
		}
		one.Reset()
		if err = enc.Encode(ev); err != nil {
			return
		}
		bw.WriteString(sep)
		bw.Write(one.Bytes()[:one.Len()-1]) // Encode ends each value with a newline
		sep = ","
	}
	bw.WriteString(`{"traceEvents":[`)
	if r != nil {
		emit(metaName("process_name", pidRanks, 0, "rank states"))
		emit(metaName("process_name", pidOps, 0, "collectives"))
		for rank := range r.ranks {
			name := fmt.Sprintf("rank %d", rank)
			emit(metaName("thread_name", pidRanks, rank, name))
			emit(metaName("thread_name", pidOps, rank, name))
		}
		for rank := range r.ranks {
			tl := &r.ranks[rank]
			for _, iv := range tl.intervals {
				emit(complete(iv.State.String(), pidRanks, rank, iv.Start, iv.End, "state", nil))
			}
			for _, op := range tl.ops {
				if op.End <= op.Start {
					continue // left open; no duration to draw
				}
				emit(complete(op.Name, pidOps, rank, op.Start, op.End, "op", nil))
			}
		}
		for rank := range r.ranks {
			for _, mk := range r.ranks[rank].marks {
				emit(traceEvent{
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
			emit(metaName("process_name", pid, 0, fmt.Sprintf("node %d NIC", node)))
			for _, s := range spans {
				tid := s.Channel*2 + int(s.Dir)
				name := fmt.Sprintf("%s %dB", s.Dir, s.Bytes)
				emit(complete(name, pid, tid, s.Start, s.End, "nic", nicArgs{s.Bytes, s.Channel, s.Dir.String()}))
			}
		}
	}
	if err != nil {
		return err
	}
	bw.WriteString(`],"displayTimeUnit":"ms"}` + "\n")
	return bw.Flush()
}
