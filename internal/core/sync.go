package core

import "nbctune/internal/mpi"

// StopMaybeSynced stops the timer with decision synchronization while any
// attached request is still learning, and with a plain local stop once all
// decisions are locked in. ADCL's selectors run one instance per rank; to
// keep every rank switching implementations in lockstep, all instances must
// see identical measurement streams, so a synchronized stop max-reduces the
// local interval across the communicator before recording it: every
// selector receives the slowest rank's time, which is also the measurement
// that matters for a collective operation. The 8-byte allreduce costs a few
// microseconds per iteration. Selectors that keep monitoring after deciding
// (Adaptive drift detectors) force synchronization permanently: their
// re-tune trigger must fire at the same iteration on every rank, which only
// holds when every rank sees identical (max-reduced) measurements.
func StopMaybeSynced(c *mpi.Comm, t *Timer, reqs ...*Request) {
	learning := false
	for _, r := range reqs {
		if !r.Decided() {
			learning = true
			break
		}
		if _, ok := r.Selector().(monitor); ok {
			learning = true
			break
		}
	}
	if !learning {
		t.Stop()
		return
	}
	in, out := t.syncBuf[:8:8], t.syncBuf[8:]
	mpi.PutFloat64(in, t.Elapsed())
	c.Allreduce(mpi.Bytes(in), mpi.Bytes(out), mpi.MaxFloat64)
	t.StopWith(mpi.GetFloat64(out))
}
