package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestHeapKeyOrder holds lt on entries built by mkEnt to the (time,
// sequence) order of their keys, across the cases the packing could get
// wrong: the borrow from lo into hi, the bit patterns of zero, subnormals and
// infinity, and the record index sharing lo with the sequence number.
func TestHeapKeyOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name   string
		a, b   evKey
		ia, ib int32
	}{
		{"equal times, the earlier sequence first", evKey{1, 5}, evKey{1, 6}, 9, 0},
		{"an earlier time under a later sequence", evKey{1, 1 << 30}, evKey{2, 1}, 0, 0},
		{"zero before the smallest subnormal", evKey{0, 7}, evKey{math.SmallestNonzeroFloat64, 1}, 0, 0},
		{"-0 ties +0, the sequence decides", evKey{negZero, 1}, evKey{0, 2}, 0, 0},
		{"+0 ties -0, the sequence decides", evKey{0, 1}, evKey{negZero, 2}, 0, 0},
		{"MaxFloat64 before +Inf", evKey{math.MaxFloat64, 9}, evKey{math.Inf(1), 1}, 0, 0},
		{"the record index never decides", evKey{1, 2}, evKey{1, 3}, maxIdx - 1, 0},
		{"the last sequence number after the first", evKey{3, 1}, evKey{3, maxSeq - 1}, maxIdx - 1, maxIdx - 1},
	} {
		a, b := mkEnt(c.a, c.ia), mkEnt(c.b, c.ib)
		if lt(a, b) != 1 || lt(b, a) != 0 || lt(a, a) != 0 {
			t.Errorf("%s: lt(a, b) = %d, lt(b, a) = %d, lt(a, a) = %d; want 1, 0, 0", c.name, lt(a, b), lt(b, a), lt(a, a))
		}
		if a.rec() != c.ia || b.rec() != c.ib {
			t.Errorf("%s: records %d and %d come back as %d and %d", c.name, c.ia, c.ib, a.rec(), b.rec())
		}
		if a.time() != c.a.t || b.time() != c.b.t {
			t.Errorf("%s: times %g and %g come back as %g and %g", c.name, c.a.t, c.b.t, a.time(), b.time())
		}
	}
	if z := mkEnt(evKey{negZero, 1}, 0).time(); math.Signbit(z) {
		t.Errorf("-0 is queued as %g, want +0", z)
	}
}

// TestHeapKeyBounds checks that an entry refuses a sequence number or a
// record index it cannot hold, naming the bound. The sequence number is
// reached through the engine; the record index through mkEnt alone, since a
// pool of 2^24 records would take about a gigabyte.
func TestHeapKeyBounds(t *testing.T) {
	e := NewEngine(1)
	e.seq = maxSeq - 2
	e.At(0, func() {}) // the last number an entry holds
	refused(t, "2^40 events", func() { e.At(0, func() {}) })
	mkEnt(evKey{0, 1}, maxIdx-1)
	refused(t, "2^24 events", func() { mkEnt(evKey{0, 1}, maxIdx) })
}

// TestHeapEntSize pins a queue entry at two words: the heap's cache
// footprint is what its sift pays for.
func TestHeapEntSize(t *testing.T) {
	if n := unsafe.Sizeof(heapEnt{}); n != 16 {
		t.Fatalf("heapEnt is %d bytes, want 16", n)
	}
}

// TestScheduleRefusesNaN checks every way into the queue against a NaN time,
// which no other time orders before or after.
func TestScheduleRefusesNaN(t *testing.T) {
	nan := math.NaN()
	e := NewEngine(1)
	var l Lane
	l.Bind(e)
	h := e.Handle(func(_, _ int32) {})
	refused(t, "past", func() { e.At(nan, func() {}) })
	refused(t, "past", func() { e.AtCall(nan, func(any) {}, nil) })
	refused(t, "past", func() { e.AtTimeH(nan, h, 0, 0) })
	refused(t, "past", func() { e.InjectH(nan, h, 0, 0) })
	refused(t, "past", func() { l.AppendH(nan, h, 0, 0) })
	e.Spawn("p", func(p *Proc) { p.Advance(nan) })
	refused(t, "negative advance", func() { e.Run() })
}

// TestInjectAtNegativeZero checks that an event injected at -0 on a fresh
// engine fires at +0, before anything later.
func TestInjectAtNegativeZero(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.At(math.SmallestNonzeroFloat64, func() { got = append(got, fmt.Sprint("later at ", e.Now())) })
	e.InjectH(math.Copysign(0, -1), e.Handle(func(_, _ int32) { got = append(got, fmt.Sprint("first at ", e.Now())) }), 0, 0)
	e.Run()
	if want := []string{"first at 0", "later at 5e-324"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %q, want %q", got, want)
	}
}

// refused runs f and checks that it panics with a message containing want.
func refused(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("no panic, want one naming %q", want)
		} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("panic %q does not name %q", msg, want)
		}
	}()
	f()
}
