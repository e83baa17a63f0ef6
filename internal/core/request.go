package core

import "fmt"

// Request is an ADCL persistent collective operation (paper §III-A). It
// binds a function set, a runtime selection logic, and a time source, and
// executes one implementation per iteration:
//
//	req := core.NewRequest(fset, sel, comm.Now)
//	timer := core.NewTimer(comm.Now, req)
//	for iter := 0; iter < n; iter++ {
//		timer.Start()
//		req.Init()            // start the non-blocking operation
//		...compute...; req.Progress()
//		req.Wait()
//		timer.Stop()
//	}
//
// Without a Timer, the request self-times the Init..Wait interval. That is
// exactly the measurement the paper shows to be invalid for overlapped
// non-blocking operations — it is kept available to reproduce that effect.
type Request struct {
	fset *FunctionSet
	sel  Selector
	now  func() float64

	timer    *Timer
	curFn    int
	started  bool
	inflight Started
	t0       float64

	learned   bool
	learnedAt float64
}

// NewRequest creates a persistent request. nowFn supplies the (virtual)
// time; pass comm.Now.
func NewRequest(fset *FunctionSet, sel Selector, nowFn func() float64) (*Request, error) {
	if err := fset.Validate(); err != nil {
		return nil, err
	}
	if sel == nil || nowFn == nil {
		return nil, fmt.Errorf("adcl: request needs a selector and a time source")
	}
	return &Request{fset: fset, sel: sel, now: nowFn, curFn: -1}, nil
}

// MustRequest is NewRequest panicking on error; for tests and examples.
func MustRequest(fset *FunctionSet, sel Selector, nowFn func() float64) *Request {
	r, err := NewRequest(fset, sel, nowFn)
	if err != nil {
		panic(err)
	}
	return r
}

// FunctionSet returns the set this request tunes over.
func (r *Request) FunctionSet() *FunctionSet { return r.fset }

// Selector returns the runtime selection logic in use.
func (r *Request) Selector() Selector { return r.sel }

// Init starts one non-blocking execution of the operation, using the
// implementation dictated by the selection logic.
func (r *Request) Init() {
	if r.started {
		panic("adcl: Init called with an execution in flight")
	}
	fn, decided := r.sel.Next()
	if decided && !r.learned {
		r.learned = true
		r.learnedAt = r.now()
	}
	r.curFn = fn
	r.started = true
	if r.timer == nil {
		r.t0 = r.now()
	}
	r.inflight = r.fset.Fns[fn].Start()
}

// Progress drives an in-flight execution (the paper's ADCL_Progress).
// Calling it with no execution in flight is a no-op.
func (r *Request) Progress() {
	if r.inflight != nil {
		if r.inflight.Progress() {
			r.inflight = nil
		}
	}
}

// Wait completes the in-flight execution. For blocking implementations
// (nil Started) it returns immediately — the work already happened in Init.
func (r *Request) Wait() {
	if !r.started {
		panic("adcl: Wait without Init")
	}
	if r.inflight != nil {
		r.inflight.Wait()
		r.inflight = nil
	}
	r.started = false
	if r.timer == nil {
		r.sel.Record(r.curFn, r.now()-r.t0)
	}
}

// Decided reports whether the selection logic has locked in a winner.
func (r *Request) Decided() bool { return r.learned }

// DecidedAt returns the virtual time at which the winner was locked in
// (0 until then). The learning-phase cost analyses of Fig 11/12 use this.
func (r *Request) DecidedAt() float64 { return r.learnedAt }

// Winner returns the chosen implementation, or nil while still learning.
func (r *Request) Winner() *Function {
	if !r.learned {
		return nil
	}
	return r.fset.Fns[r.sel.Winner()]
}

// Timer decouples measurement from the operation call sites (paper §III-D):
// the elapsed time between Start and Stop — which may span computation and
// several communication operations — is charged to the implementations the
// attached requests used in that interval.
//
// When several requests share one selector, they run in lockstep (same
// implementation each iteration) and the interval is recorded once: this is
// how one tunes a window of concurrent operations, and it is the
// implementation of the paper's co-tuning extension.
type Timer struct {
	now     func() float64
	reqs    []*Request
	t0      float64
	running bool
	seen    []Selector // StopWith scratch, capacity-reused so Stop never allocates
	syncBuf [16]byte   // StopMaybeSynced scratch: the allreduce's 8-byte input and output
}

// NewTimer creates a timer measuring for the given requests. The requests'
// self-timing is disabled.
func NewTimer(nowFn func() float64, reqs ...*Request) (*Timer, error) {
	if nowFn == nil {
		return nil, fmt.Errorf("adcl: timer needs a time source")
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("adcl: timer needs at least one request")
	}
	t := &Timer{now: nowFn, reqs: reqs}
	for _, r := range reqs {
		if r.timer != nil {
			return nil, fmt.Errorf("adcl: request already associated with a timer")
		}
		r.timer = t
	}
	return t, nil
}

// MustTimer is NewTimer panicking on error.
func MustTimer(nowFn func() float64, reqs ...*Request) *Timer {
	t, err := NewTimer(nowFn, reqs...)
	if err != nil {
		panic(err)
	}
	return t
}

// Start begins a measured interval.
func (t *Timer) Start() {
	if t.running {
		panic("adcl: timer started twice")
	}
	t.running = true
	t.t0 = t.now()
}

// Stop ends the interval and records the elapsed time. Requests sharing one
// selector count as a single tuning target. When the timer owns several
// distinct selectors (co-tuning different operations), they learn
// sequentially: only the first still-undecided selector receives the
// measurement, so one operation's exploration never confounds another's.
func (t *Timer) Stop() {
	t.StopWith(t.Elapsed())
}

// Elapsed returns the time since Start of the running interval.
func (t *Timer) Elapsed() float64 {
	if !t.running {
		panic("adcl: Elapsed on a stopped timer")
	}
	return t.now() - t.t0
}

// StopWith ends the interval but records the given elapsed value instead of
// the locally measured one. This is the hook for decision synchronization:
// feeding every rank the same (e.g. max-reduced) measurement keeps the
// per-rank selectors in lockstep.
//
// Decided selectors that implement a post-decision Monitor (the adaptive
// drift detectors) still observe the interval: a decision ends learning,
// not measurement.
func (t *Timer) StopWith(elapsed float64) {
	if !t.running {
		panic("adcl: timer stopped without start")
	}
	t.running = false
	// Timers own a handful of requests, so the duplicate-selector check is a
	// scan over a reused scratch list rather than a per-stop map.
	t.seen = t.seen[:0]
	recorded := false
	for _, r := range t.reqs {
		if r.curFn < 0 || t.sawSelector(r.sel) {
			continue
		}
		t.seen = append(t.seen, r.sel)
		if _, decided := r.sel.Next(); !decided {
			// Only the first still-undecided selector learns from the
			// interval, so one operation's exploration never confounds
			// another's.
			if !recorded {
				r.sel.Record(r.curFn, elapsed)
				recorded = true
			}
			continue
		}
		if m, ok := r.sel.(monitor); ok {
			m.Monitor(r.curFn, elapsed)
		}
	}
}

func (t *Timer) sawSelector(s Selector) bool {
	for _, x := range t.seen {
		if x == s {
			return true
		}
	}
	return false
}
