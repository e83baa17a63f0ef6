// Package obs is the observability layer of the stack: a passive recorder
// for per-rank state timelines, NIC channel occupancy, collective-operation
// spans, selection-audit events, and the derived metrics (overlap ratio,
// progress-call accounting, rendezvous stall time, bytes-on-wire per
// algorithm) that explain every figure the harnesses produce.
//
// It sits beside S1–S9 rather than inside them: sim (S1), netmodel (S2),
// mpi (S3), nbc (S4) and core (S5) each hold an optional *Recorder (or
// *Audit) and report their transitions to it; bench (S7) and the cmd/
// drivers attach one when the user asks for -trace/-metrics.
//
// Key invariant: recording is passive. No Recorder or Audit method advances
// virtual time, charges CPU cost, consumes randomness, or influences any
// decision in the layers it observes — so a simulation produces bit-identical
// results whether a recorder is attached or not. Every method is additionally
// safe on a nil receiver (a single branch), which is what makes the
// instrumentation zero-cost when disabled: call sites never check for nil.
//
// Storage is partitioned for the PDES single-writer discipline (DESIGN.md
// §2): everything rank-scoped (timelines, ops, marks, per-algorithm bytes)
// lives with its rank, and NIC spans live with their node. A sharded world
// assigns each rank — and each node, and each node's NIC tx/rx recording —
// to exactly one shard, so concurrent shards never touch the same slice and
// the recorder needs no locks. Sequential runs are unaffected. Accessors
// and exporters flatten in canonical (rank, then node) order, so exported
// artifacts are byte-identical at any shard count.
package obs

// State classifies what a rank is doing at a point in virtual time.
type State uint8

const (
	// StateCompute: executing application computation (mpi.Rank.Compute).
	StateCompute State = iota
	// StateMPI: executing MPI library code (posting, matching, copying,
	// progress overhead — everything mpi's charge advances a rank by).
	StateMPI
	// StateBlocked: parked inside a blocking MPI call waiting for a
	// protocol event (the inside of waitUntil).
	StateBlocked
)

func (s State) String() string {
	switch s {
	case StateCompute:
		return "compute"
	case StateMPI:
		return "mpi"
	case StateBlocked:
		return "blocked"
	}
	return "unknown"
}

// Interval is one contiguous span of a rank's state timeline.
type Interval struct {
	State      State
	Start, End float64
}

// OpSpan is the lifetime of one non-blocking collective operation on one
// rank, from Start to completion. End < Start marks a span still open when
// the recording stopped.
type OpSpan struct {
	Name       string
	Start, End float64
}

// Dir distinguishes the two sides of a full-duplex NIC channel.
type Dir uint8

const (
	// TX: the sender-side serialization span of a transfer.
	TX Dir = iota
	// RX: the receiver-side serialization span (includes incast stretch).
	RX
)

func (d Dir) String() string {
	if d == RX {
		return "rx"
	}
	return "tx"
}

// NICSpan is one occupancy span of one NIC channel of one node.
type NICSpan struct {
	Node, Channel int
	Dir           Dir
	Start, End    float64
	Bytes         int
}

// Mark is an instant annotation on a rank's timeline (e.g. a schedule round
// being posted).
type Mark struct {
	Rank int
	Name string
	T    float64
}

// rankTimeline accumulates everything recorded about one rank.
type rankTimeline struct {
	intervals []Interval
	ops       []OpSpan
	marks     []Mark
	algoBytes map[string]int64 // lazily allocated on first AlgoBytes

	progressCalls    int64
	progressAdvanced int64
	stalls           int64
	stallTime        float64
}

// Recorder collects the observable behaviour of one simulation run. Obtain
// one with NewRecorder, hand it to mpi.World.Observe, which also attaches it
// to the network, and read it back through Metrics,
// WriteChromeTrace, or the exported span accessors.
//
// All methods are no-ops on a nil *Recorder.
type Recorder struct {
	ranks     []rankTimeline
	nicByNode [][]NICSpan // per node; written only by the node's shard
}

// NewRecorder creates a recorder for a world of the given rank count.
func NewRecorder(ranks int) *Recorder {
	return &Recorder{ranks: make([]rankTimeline, ranks)}
}

// EnsureNodes sizes the per-node NIC storage for n nodes. NIC records only
// into nodes sized here (mpi.World.Observe does it on attach): growing the
// outer slice while shards record concurrently would race.
func (r *Recorder) EnsureNodes(n int) {
	if r == nil || n <= len(r.nicByNode) {
		return
	}
	grown := make([][]NICSpan, n)
	copy(grown, r.nicByNode)
	r.nicByNode = grown
}

// StateSpan records that rank spent [t0, t1] in state s. Contiguous spans of
// the same state are coalesced.
func (r *Recorder) StateSpan(rank int, s State, t0, t1 float64) {
	if r == nil || t1 <= t0 || rank < 0 || rank >= len(r.ranks) {
		return
	}
	tl := &r.ranks[rank]
	if n := len(tl.intervals); n > 0 {
		last := &tl.intervals[n-1]
		if last.State == s && last.End == t0 {
			last.End = t1
			return
		}
	}
	tl.intervals = append(tl.intervals, Interval{State: s, Start: t0, End: t1})
}

// OpBegin records the start of a named collective operation on rank and
// returns a span id to pass to OpEnd. Returns -1 on a nil recorder.
func (r *Recorder) OpBegin(rank int, name string, t float64) int {
	if r == nil || rank < 0 || rank >= len(r.ranks) {
		return -1
	}
	tl := &r.ranks[rank]
	tl.ops = append(tl.ops, OpSpan{Name: name, Start: t, End: t - 1})
	return len(tl.ops) - 1
}

// OpEnd closes the operation span opened by OpBegin. Ignores id < 0.
func (r *Recorder) OpEnd(rank, id int, t float64) {
	if r == nil || id < 0 || rank < 0 || rank >= len(r.ranks) {
		return
	}
	tl := &r.ranks[rank]
	if id < len(tl.ops) {
		tl.ops[id].End = t
	}
}

// MarkInstant records an instant annotation on rank's timeline.
func (r *Recorder) MarkInstant(rank int, name string, t float64) {
	if r == nil || rank < 0 || rank >= len(r.ranks) {
		return
	}
	tl := &r.ranks[rank]
	tl.marks = append(tl.marks, Mark{Rank: rank, Name: name, T: t})
}

// ProgressCall counts one explicit progress call made by rank.
func (r *Recorder) ProgressCall(rank int) {
	if r == nil || rank < 0 || rank >= len(r.ranks) {
		return
	}
	r.ranks[rank].progressCalls++
}

// ProgressAdvanced counts one progress call that actually advanced a
// schedule round on rank (the useful subset of ProgressCall).
func (r *Recorder) ProgressAdvanced(rank int) {
	if r == nil || rank < 0 || rank >= len(r.ranks) {
		return
	}
	r.ranks[rank].progressAdvanced++
}

// RendezvousStall records that a rendezvous send on rank waited d seconds
// between posting its RTS and processing the CTS — the handshake latency a
// progress call could have shortened.
func (r *Recorder) RendezvousStall(rank int, d float64) {
	if r == nil || d <= 0 || rank < 0 || rank >= len(r.ranks) {
		return
	}
	r.ranks[rank].stalls++
	r.ranks[rank].stallTime += d
}

// AlgoBytes attributes n payload bytes sent by rank to the named algorithm
// (schedule name). Attribution is per-rank so concurrent shards never share
// a counter; Metrics sums the ranks back into one map.
func (r *Recorder) AlgoBytes(rank int, name string, n int) {
	if r == nil || n <= 0 || rank < 0 || rank >= len(r.ranks) {
		return
	}
	tl := &r.ranks[rank]
	if tl.algoBytes == nil {
		tl.algoBytes = map[string]int64{}
	}
	tl.algoBytes[name] += int64(n)
}

// NIC records one occupancy span of a node's NIC channel.
func (r *Recorder) NIC(node, channel int, dir Dir, t0, t1 float64, bytes int) {
	if r == nil || t1 <= t0 || node < 0 {
		return
	}
	r.nicByNode[node] = append(r.nicByNode[node],
		NICSpan{Node: node, Channel: channel, Dir: dir, Start: t0, End: t1, Bytes: bytes})
}
