package sim

import "fmt"

// Snapshot is a detached, immutable copy of a quiescent engine. It shares
// nothing mutable with the engine it was taken from, so the parent may keep
// running (or be discarded) and any number of Forks can be materialized from
// one snapshot, concurrently.
//
// Goroutine stacks cannot be copied, so an engine is only snapshottable at a
// quiescent point: no live processes, an empty event queue, and every pooled
// event record back on the free list. Engine.Run drains the queue completely,
// so "after Run returned" is the natural snapshot point. What the snapshot
// preserves beyond the clock is the pool discipline: the pool's size (a fork
// starts as warm as its parent) and the free-list order (so forks allocate
// records in exactly the sequence the parent would have).
type Snapshot struct {
	now   Time
	seq   int64
	fired int64
	free  []int32 // free-list content in stack order; every record is on it
	rng   *ClonableRand
}

// Snapshot captures the engine's state. It fails with a descriptive error if
// the engine is not quiescent (live processes, queued events, or event
// records still in flight).
func (e *Engine) Snapshot() (*Snapshot, error) {
	if e.live != 0 {
		return nil, fmt.Errorf("sim: snapshot of a non-quiescent engine: %d process(es) still live", e.live)
	}
	if len(e.heap) != 0 {
		return nil, fmt.Errorf("sim: snapshot with %d event(s) still queued", len(e.heap))
	}
	if len(e.free) != len(e.recs) {
		return nil, fmt.Errorf("sim: snapshot with %d event record(s) still in flight", len(e.recs)-len(e.free))
	}
	if pp := e.procPanic; pp != nil {
		return nil, fmt.Errorf("sim: snapshot of a faulted engine: %v", pp)
	}
	s := &Snapshot{
		now:   e.now,
		seq:   e.seq,
		fired: e.EventsFired,
		free:  append([]int32(nil), e.free...),
		rng:   e.rng.Clone(),
	}
	return s, nil
}

// Now returns the virtual time at which the snapshot was taken.
func (s *Snapshot) Now() Time { return s.now }

// Fork materializes a fresh engine from the snapshot: same clock, same event
// sequence counter, a warm record pool with the parent's free-list order,
// and a random stream positioned exactly where the parent's
// was. The fork starts with no processes, no lanes and the box handler alone
// in its handler table (a quiescent engine has nothing boxed); spawn new
// processes and register handlers to resume work.
// Fork only reads the snapshot, so concurrent Forks are safe.
func (s *Snapshot) Fork() *Engine {
	e := newEngine(&Engine{
		now:         s.now,
		seq:         s.seq,
		rng:         s.rng.Clone(),
		EventsFired: s.fired,
	})
	e.recs = make([]eventRec, len(s.free))
	e.free = append(make([]int32, 0, len(s.free)), s.free...)
	e.heap = make([]heapEnt, 0, len(s.free))
	return e
}
