package mpi_test

import (
	"reflect"
	"strconv"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
)

// TestRecordSizes pins the records every schedule entry and every message
// carries at their sizes on a 64-bit host. A schedule is rebuilt for every
// rank on every call and holds one nbc.Op per entry; each in-flight message
// holds a Request, an envelope or an xfer, and each of those an mpi.Buf;
// each protocol step queues a notice. A field added to or widened in any of them shows up in what a world
// allocates, so the test names the record that grew (DESIGN.md §3
// "Schedules" and "Payloads"). Every rank of a world is a Rank record, the
// matcher inside it included, whether or not it communicates: a queue's
// index hangs off one pointer so that an idle rank pays 8 bytes for it, and
// a matcher that held its table inline would grow every Rank even where
// TestIdleWorldFootprint16K's per-rank budget still held.
func TestRecordSizes(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	for _, tc := range []struct {
		name string
		v    any
		max  uintptr
	}{
		{"nbc.Op", nbc.Op{}, 48},
		{"mpi.Buf", mpi.Buf{}, 16},
		{"mpi.Request", mpi.Request{}, 88},
		{"mpi.envelope", mpi.Envelope{}, 56},
		{"mpi.xfer", mpi.Xfer{}, 72},
		{"mpi.notice", mpi.Notice{}, 8},
		{"mpi.Rank", mpi.Rank{}, 312},
		{"mpi.matcher", mpi.Matcher{}, 88},
	} {
		if got := reflect.TypeOf(tc.v).Size(); got > tc.max {
			t.Errorf("%s grew to %d bytes, over its %d", tc.name, got, tc.max)
		}
	}
}
