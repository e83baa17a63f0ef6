package netmodel

import (
	"slices"
	"testing"
)

// TestSlabChunks holds Slab to its growth rule: distinct zeroed records,
// carved from chunks of 8, 16, 32, ... records up to the most that fit in
// 32 KiB (455 of rxOp's 72 bytes), and of that size from then on.
func TestSlabChunks(t *testing.T) {
	var s Slab[rxOp]
	var chunks []int
	seen := map[*rxOp]bool{}
	for i := 0; i < 2000; i++ {
		rx := s.New()
		if len(s.chunk) == s.n-1 {
			chunks = append(chunks, s.n)
		}
		if seen[rx] || rx.bytes != 0 || rx.rn != nil {
			t.Fatalf("record %d was handed out before or is not zeroed", i)
		}
		seen[rx] = true
		rx.bytes = i + 1
	}
	if want := []int{8, 16, 32, 64, 128, 256, 455, 455, 455, 455}; !slices.Equal(chunks, want) {
		t.Fatalf("chunks of %v records, want %v", chunks, want)
	}
}
