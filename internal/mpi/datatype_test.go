package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestContigPackUnpack(t *testing.T) {
	dt := Contig(5)
	if dt.Size() != 5 || dt.Extent() != 5 {
		t.Fatal("contig geometry wrong")
	}
	src := []byte{1, 2, 3, 4, 5}
	dst := make([]byte, 5)
	dt.Pack(dst, src)
	back := make([]byte, 5)
	dt.Unpack(back, dst)
	for i := range src {
		if back[i] != src[i] {
			t.Fatal("contig roundtrip failed")
		}
	}
}

func TestVectorGeometry(t *testing.T) {
	v := Vector{Count: 3, BlockLen: 2, Stride: 5}
	if v.Size() != 6 {
		t.Fatalf("size = %d", v.Size())
	}
	if v.Extent() != 12 { // 2*5 + 2
		t.Fatalf("extent = %d", v.Extent())
	}
	empty := Vector{}
	if empty.Size() != 0 || empty.Extent() != 0 {
		t.Fatal("empty vector geometry wrong")
	}
}

func TestVectorPackUnpack(t *testing.T) {
	v := Vector{Count: 3, BlockLen: 2, Stride: 4}
	src := []byte{1, 2, 9, 9, 3, 4, 9, 9, 5, 6}
	packed := make([]byte, v.Size())
	v.Pack(packed, src)
	want := []byte{1, 2, 3, 4, 5, 6}
	for i := range want {
		if packed[i] != want[i] {
			t.Fatalf("packed = %v", packed)
		}
	}
	out := make([]byte, v.Extent())
	v.Unpack(out, packed)
	for i := 0; i < v.Count; i++ {
		if out[i*4] != want[2*i] || out[i*4+1] != want[2*i+1] {
			t.Fatalf("unpacked = %v", out)
		}
	}
}

// Property: for any valid vector layout, Pack then Unpack restores exactly
// the selected bytes and touches nothing else.
func TestVectorRoundTripProperty(t *testing.T) {
	f := func(cnt8, bl8, pad8 uint8, seed int64) bool {
		v := Vector{
			Count:    int(cnt8%10) + 1,
			BlockLen: int(bl8%16) + 1,
		}
		v.Stride = v.BlockLen + int(pad8%8)
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, v.Extent())
		rng.Read(src)
		packed := make([]byte, v.Size())
		v.Pack(packed, src)
		out := make([]byte, v.Extent())
		for i := range out {
			out[i] = 0xEE // sentinel
		}
		v.Unpack(out, packed)
		for i := 0; i < v.Count; i++ {
			for j := 0; j < v.BlockLen; j++ {
				if out[i*v.Stride+j] != src[i*v.Stride+j] {
					return false
				}
			}
			// gap bytes untouched
			for j := v.BlockLen; i < v.Count-1 && j < v.Stride; j++ {
				if out[i*v.Stride+j] != 0xEE {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Fatal(err)
	}
}
