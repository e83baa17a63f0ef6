package main

import (
	"math"
	"runtime"
	"time"
)

// The host-speed reference. The hosts this benchmark runs on are a few
// cores of a shared machine whose speed moves in phases of seconds to
// minutes, by 15-40 % (NOISE.md): ten runs of identical code spread as wide
// as the regression bound. So every run times, between the passes of its
// workload, a fixed kernel that lives here and never changes, and reports
// throughput per reference second: a pass's seconds divided by how much
// slower than refNominal the kernel ran right before and after it.
//
// The kernel is a small discrete-event loop, because that is what slows down
// together with the workloads when a neighbour takes cache and memory
// bandwidth: a binary heap of timestamped events, each pop touching a random
// 112-byte rank record and pushing a successor. It runs at two sizes — 2 Ki
// ranks, which stay in the core's own cache and follow the core's speed, and
// 64 Ki ranks (8 MB), which follow the shared cache and memory — and a
// sample is the geometric mean of the two, each relative to its nominal
// time: the host's core and its memory slow down at different moments, and
// the workloads depend on both. It allocates nothing and every sample
// follows a forced collection, so the garbage a pass left behind is not
// charged to the host. A pure integer loop and a pointer chase were tried and
// follow the workloads far less closely.
//
// FROZEN: any edit to this file changes the unit of norm_ops_per_s and
// setup_s and breaks comparison with every earlier measurement.

// refNominal is about one sample's duration on the recording host in its
// slower phases. It only fixes the scale of the reference second.
const refNominal = 0.115

type refEvent struct {
	t    float64
	rank int32
}

type refRank struct {
	clock float64
	count int
	_     [12]uint64
}

// refLoop is the event loop at one size.
type refLoop struct {
	heap    []refEvent
	ranks   []refRank
	rng     uint64
	events  int     // per sample
	nominal float64 // seconds per sample on the recording host
}

type refKernel struct{ core, memory *refLoop }

func newRefKernel() *refKernel {
	return &refKernel{
		core:   newRefLoop(1<<11, 500_000, 0.058),
		memory: newRefLoop(1<<16, 500_000, 0.108),
	}
}

// sample collects garbage, so that no collector work left over from the
// workload runs beside the kernel, then runs both loops and returns the
// reference time: refNominal when both run at their nominal speed.
func (k *refKernel) sample() float64 {
	runtime.GC()
	c, m := k.core.run(), k.memory.run()
	return refNominal * math.Sqrt(c/k.core.nominal*m/k.memory.nominal)
}

func newRefLoop(ranks, events int, nominal float64) *refLoop {
	k := &refLoop{heap: make([]refEvent, 0, ranks+1), ranks: make([]refRank, ranks), rng: 1, events: events, nominal: nominal}
	for i := 0; i < ranks; i++ {
		k.push(refEvent{t: float64(k.next()>>40) / 1e3, rank: int32(i)})
	}
	return k
}

func (k *refLoop) next() uint64 {
	k.rng = k.rng*6364136223846793005 + 1442695040888963407
	return k.rng
}

// run executes k.events events and returns the seconds they took.
func (k *refLoop) run() float64 {
	mask := int32(len(k.ranks) - 1)
	t0 := time.Now()
	for i := 0; i < k.events; i++ {
		e := k.pop()
		r := &k.ranks[e.rank]
		r.clock = e.t
		r.count++
		x := k.next()
		k.push(refEvent{t: e.t + float64(x>>44)/1e3, rank: int32(x>>33) & mask})
	}
	return time.Since(t0).Seconds()
}

func (k *refLoop) push(e refEvent) {
	k.heap = append(k.heap, e)
	h := k.heap
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].t <= h[i].t {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
}

func (k *refLoop) pop() refEvent {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < n && h[l].t < h[small].t {
			small = l
		}
		if r := l + 1; r < n && h[r].t < h[small].t {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	k.heap = h
	return top
}
