package obs

// Selection audit: a machine-readable log of everything an ADCL selector saw
// and decided during one tuning session, detailed enough that a winner can
// be re-derived by hand from the artifact alone (EXPERIMENTS.md walks
// through one). The core selectors emit into an *Audit attached via
// core.AttachAudit; like the Recorder, every method is a no-op on nil and
// never influences the selection itself.

// Audit event kinds.
const (
	// AuditSample: one raw measurement of one function.
	AuditSample = "sample"
	// AuditEstimate: the filtered (robust-score) estimate of one function at
	// a decision point, with how many samples survived the outlier filter.
	AuditEstimate = "estimate"
	// AuditPrune: candidate functions removed from the search.
	AuditPrune = "prune"
	// AuditPhase: a selector phase transition (attribute slices, corner
	// screening, final brute force).
	AuditPhase = "phase"
	// AuditDecide: the final winner.
	AuditDecide = "decide"
	// AuditDrift: a drift monitor found the committed winner's windowed
	// score departing from its tuning-time baseline; measurement re-opens.
	AuditDrift = "drift"
	// AuditRetune: a re-opened tuning round committed a (possibly new)
	// winner.
	AuditRetune = "retune"
	// AuditMock: a guideline-promoted composed mock implementation joined
	// the candidate set; Detail carries the violated guideline and scenario
	// that promoted it (the feedback-loop provenance trail).
	AuditMock = "mock"
	// AuditFork: a speculative fork dispatched to measure one candidate on
	// its own copy of the world.
	AuditFork = "fork"
	// AuditJoin: one candidate's speculative measurements merged back into
	// the selector; Value carries the number of samples joined.
	AuditJoin = "join"
)

// AuditEvent is one entry of the selection log. Fn is a function index into
// Audit.Functions; it is -1 for events not tied to one function.
type AuditEvent struct {
	Seq     int     `json:"seq"`
	Kind    string  `json:"kind"`
	Fn      int     `json:"fn"`
	Name    string  `json:"name,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Removed []int   `json:"removed,omitempty"`
}

// Audit is the selection log of one tuning session.
type Audit struct {
	Selector  string       `json:"selector"`
	Functions []string     `json:"functions"`
	Events    []AuditEvent `json:"events"`
}

// NewAudit creates an audit log for a selector over the named functions.
func NewAudit(selector string, functions []string) *Audit {
	return &Audit{Selector: selector, Functions: functions}
}

func (a *Audit) add(ev AuditEvent) {
	ev.Seq = len(a.Events)
	if ev.Fn >= 0 && ev.Fn < len(a.Functions) {
		ev.Name = a.Functions[ev.Fn]
	}
	a.Events = append(a.Events, ev)
}

// Sample logs one raw measurement (seconds) of function fn.
func (a *Audit) Sample(fn int, v float64) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditSample, Fn: fn, Value: v})
}

// Estimate logs the filtered estimate of function fn at a decision point.
func (a *Audit) Estimate(fn int, score float64, detail string) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditEstimate, Fn: fn, Value: score, Detail: detail})
}

// Prune logs the removal of candidate functions, with the reason.
func (a *Audit) Prune(detail string, removed []int) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditPrune, Fn: -1, Detail: detail, Removed: removed})
}

// Phase logs a selector phase transition.
func (a *Audit) Phase(detail string) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditPhase, Fn: -1, Detail: detail})
}

// Fork logs the dispatch of one candidate's measurement rounds to a forked
// world.
func (a *Audit) Fork(fn int, detail string) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditFork, Fn: fn, Detail: detail})
}

// Join logs the merge of one candidate's speculative measurements back into
// the selector.
func (a *Audit) Join(fn int, samples int, detail string) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditJoin, Fn: fn, Value: float64(samples), Detail: detail})
}

// Decide logs the final winner and the number of measurements consumed.
func (a *Audit) Decide(winner int, evals int) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditDecide, Fn: winner, Value: float64(evals), Detail: "evals"})
}

// Drift logs a drift detection on the committed winner: its windowed score
// departed from the tuning-time baseline and measurement re-opens.
func (a *Audit) Drift(fn int, score float64, detail string) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditDrift, Fn: fn, Value: score, Detail: detail})
}

// Retune logs the decision closing a re-opened tuning round, with the
// number of measurements that round consumed.
func (a *Audit) Retune(winner int, evals int) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditRetune, Fn: winner, Value: float64(evals), Detail: "evals"})
}

// Mock logs the promotion of a guideline mock into the candidate set before
// tuning starts; detail names the violated guideline and scenario, so the
// provenance of every mock candidate is readable from the audit alone.
func (a *Audit) Mock(fn int, detail string) {
	if a == nil {
		return
	}
	a.add(AuditEvent{Kind: AuditMock, Fn: fn, Detail: detail})
}
