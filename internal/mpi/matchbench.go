package mpi

// MatchBench is a reusable harness over the message-matching engines, shared
// by the in-package benchmarks, the AllocsPerRun regression test, and the
// repository benchmark's mpi.match_ns.* probes (perf/README.md). It keeps k
// receives posted for one rank and, per cycle, matches one arriving message
// against the full window and re-posts the freed receive. Arrival tags walk
// a fixed odd-stride permutation of 0..k-1, so the linear reference scans
// about half the window per match — the cost of a uniformly random match —
// while the indexed engine stays O(1).
type MatchBench struct {
	indexed   bool
	k         int
	step, pos int
	s         *shard // the records the indexed engine links
	m         matcher
	ref       refMatcher
}

// NewMatchBench builds a harness with k posted receives, driving the indexed
// engine or the linear-scan reference.
func NewMatchBench(k int, indexed bool) *MatchBench {
	mb := &MatchBench{indexed: indexed, k: k, step: oddCoprimeStep(k)}
	if indexed {
		mb.s = newShard(newRecords(1, 0), 0, nil, nil, Options{})
		for i := 0; i < k; i++ {
			q := mb.s.allocReq()
			q.peer, q.tag, q.ctx = 0, i, 1
			mb.m.post(mb.s.recs, q)
		}
		return mb
	}
	for i := 0; i < k; i++ {
		mb.ref.posted = append(mb.ref.posted, refItem{ctx: 1, src: 0, tag: i, id: i})
	}
	return mb
}

// RunCycles performs n match-and-repost cycles. It panics if a match is ever
// lost, so a broken engine cannot masquerade as a fast one.
func (mb *MatchBench) RunCycles(n int) {
	for i := 0; i < n; i++ {
		mb.pos = (mb.pos + mb.step) % mb.k
		tag := mb.pos
		if mb.indexed {
			q := mb.m.matchArrival(mb.s.recs, 1, 0, tag)
			if q == nil {
				panic("mpi: MatchBench lost a posted receive")
			}
			mb.m.post(mb.s.recs, q)
			continue
		}
		if id := mb.ref.arrive(1, 0, tag, tag, false); id < 0 {
			panic("mpi: MatchBench lost a posted receive")
		}
		mb.ref.posted = append(mb.ref.posted, refItem{ctx: 1, src: 0, tag: tag, id: tag})
	}
}

// oddCoprimeStep picks an odd stride near k/2 that is coprime with k, so the
// tag walk visits every posted receive before repeating.
func oddCoprimeStep(k int) int {
	if k <= 2 {
		return 1
	}
	s := k/2 + 1
	if s%2 == 0 {
		s++
	}
	for gcd(s, k) != 1 {
		s += 2
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
