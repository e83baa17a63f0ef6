package mpi_test

import (
	"reflect"
	"strconv"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/sim"
)

// TestRecordSizes pins the records every schedule entry and every message
// carries at their sizes on a 64-bit host. A schedule is rebuilt for every
// rank on every call and holds one nbc.Op per local step and per run of
// posts; each in-flight message holds a Request, an envelope or an xfer, each
// of those its payload's length and slot, and a sim event record or lane
// entry while it is on the wire;
// each protocol step queues a notice and each deferred network call a sim
// action. A field added to or widened in any of them shows up in what a
// world allocates, so the test names the record that grew (DESIGN.md §3
// "Schedules" and "Payloads"). Every rank of a world is a Rank record, the
// matcher inside it included, whether or not it communicates: a queue's
// index hangs off one pointer so that an idle rank pays 8 bytes for it, and
// a matcher that held its table inline would grow every Rank even where
// TestIdleWorldFootprint16K's per-rank budget still held. Every rank of a
// started world also runs as a sim.Proc.
func TestRecordSizes(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	// sim's records are unexported: their types are those of the fields that
	// hold them.
	elem := func(v any, field string) reflect.Type {
		f, _ := reflect.TypeOf(v).FieldByName(field)
		return f.Type.Elem()
	}
	lanePool, _ := reflect.TypeOf(sim.Engine{}).FieldByName("lanePool") // its chunks hold the lane entries
	laneEnt := elem(reflect.New(lanePool.Type).Elem().Interface(), "chunks").Elem()
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		max  uintptr
	}{
		{"nbc.Op", reflect.TypeOf(nbc.Op{}), 32},
		{"mpi.Buf", reflect.TypeOf(mpi.Buf{}), 16},
		{"mpi.Request", reflect.TypeOf(mpi.Request{}), 64},
		{"mpi.envelope", reflect.TypeOf(mpi.Envelope{}), 48},
		{"mpi.xfer", reflect.TypeOf(mpi.Xfer{}), 56},
		{"mpi.notice", reflect.TypeOf(mpi.Notice{}), 8},
		{"mpi.Rank", reflect.TypeOf(mpi.Rank{}), 304},
		{"sim.Proc", reflect.TypeOf(sim.Proc{}), 160},
		{"mpi.matcher", reflect.TypeOf(mpi.Matcher{}), 88},
		{"sim.eventRec", elem(sim.Engine{}, "recs"), 24},
		{"sim.laneEnt", laneEnt, 32},
		{"sim.action", elem(sim.Proc{}, "acts"), 12},
	} {
		if got := tc.typ.Size(); got > tc.max {
			t.Errorf("%s grew to %d bytes, over its %d", tc.name, got, tc.max)
		}
	}
}
