package netmodel

import (
	"reflect"
	"slices"
	"strconv"
	"testing"

	"nbctune/internal/sim"
)

// TestSlabChunks holds Slab to its growth rule: distinct zeroed records,
// carved from chunks of 8, 16, 32, ... records up to the most that fit in
// 32 KiB (585 of rxOp's 56 bytes), and of that size from then on; and to its
// names: every index New returns is distinct and non-zero, and At resolves
// it to the record New returned with it.
func TestSlabChunks(t *testing.T) {
	ss := NewSlabs[rxOp](1, nil)
	s := &ss[0]
	if s.dir.Load() != nil {
		t.Fatal("a new slab allocated a directory")
	}
	var chunks []int
	seen := map[*rxOp]bool{}
	idx := map[int32]*rxOp{}
	for i := 0; i < 2000; i++ {
		rx, ix := s.New()
		if s.used == 1 {
			chunks = append(chunks, len(s.chunk))
		}
		if seen[rx] || rx.bytes != 0 || rx.next != 0 {
			t.Fatalf("record %d was handed out before or is not zeroed", i)
		}
		if ix == 0 || idx[ix] != nil {
			t.Fatalf("record %d is named %#x, which is none or names another", i, ix)
		}
		seen[rx], idx[ix] = true, rx
		rx.bytes = i + 1
	}
	if want := []int{8, 16, 32, 64, 128, 256, 512, 585, 585}; !slices.Equal(chunks, want) {
		t.Fatalf("chunks of %v records, want %v", chunks, want)
	}
	for ix, rx := range idx {
		if ss.At(ix) != rx {
			t.Fatalf("index %#x resolves to another record", ix)
		}
	}
}

// TestReleasedChunksServeAgain: slabs that draw from a pool hand out, after
// Release, the records and indices of a fresh set, every record zeroed
// whether its chunk is recycled or carved, past the ordinal from which every
// chunk has one length (sim.ChunkPool).
func TestReleasedChunksServeAgain(t *testing.T) {
	var pool sim.ChunkPool[rxOp]
	ss := NewSlabs(2, &pool)
	draw := func() (idx []int32, chunks []int) {
		for i := 0; i < 6000; i++ {
			rx, ix := ss[1].New()
			if ss[1].used == 1 {
				chunks = append(chunks, len(ss[1].chunk))
			}
			if *rx != (rxOp{}) {
				t.Fatalf("record %d is not zeroed", i)
			}
			rx.bytes, rx.next = i+1, ix
			idx = append(idx, ix)
		}
		return idx, chunks
	}
	idx, chunks := draw()
	ss.Release()
	if ss[1].dir.Load() != nil || ss[1].chunks != nil {
		t.Fatal("a released slab kept its directory")
	}
	again, chunksAgain := draw()
	if !slices.Equal(idx, again) || !slices.Equal(chunks, chunksAgain) {
		t.Errorf("after Release the slab handed out other indices or chunks: %v, want %v", chunksAgain, chunks)
	}
}

// TestSlabsNameTheirShard draws records on every shard of a set and resolves
// each index through the set: an index names the shard that drew it.
func TestSlabsNameTheirShard(t *testing.T) {
	ss := NewSlabs[rxOp](MaxShards, nil)
	for sh := len(ss) - 1; sh >= 0; sh-- {
		for i := 0; i < 20; i++ {
			rx, ix := ss[sh].New()
			rx.bytes = sh<<8 | i
			if got := ss.At(ix); got != rx || got.bytes != sh<<8|i {
				t.Fatalf("shard %d record %d: index %#x resolves elsewhere", sh, i, ix)
			}
		}
	}
}

// TestRxOpSize pins netmodel's transfer record, drawn once per inter-node
// message in flight, at its size on a 64-bit host.
func TestRxOpSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := reflect.TypeOf(rxOp{}).Size(); got > 56 {
		t.Errorf("rxOp grew to %d bytes, over its 56", got)
	}
}
