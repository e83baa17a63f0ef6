package mpi

import (
	"bytes"
	"testing"
)

// TestBufSemantics pins what a payload descriptor reads as, through its
// exported API only so that it holds for any layout of Buf: the length, the
// data/virtual distinction and the bytes of constructed, sliced and cloned
// buffers.
func TestBufSemantics(t *testing.T) {
	full := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	cases := []struct {
		name    string
		b       Buf
		len     int
		hasData bool
		data    []byte // nil: Data must return nil
	}{
		{"virtual", Virtual(7), 7, false, nil},
		{"virtual negative", Virtual(-3), 0, false, nil},
		{"zero", Buf{}, 0, false, nil},
		{"bytes nil", Bytes(nil), 0, false, nil},
		{"bytes empty", Bytes([]byte{}), 0, true, []byte{}},
		{"bytes full", Bytes(full), 8, true, full},
		{"virtual slice", Virtual(64).Slice(8, 16), 16, false, nil},
		{"virtual slice negative", Virtual(64).Slice(8, -1), 0, false, nil},
		{"real slice", Bytes(full).Slice(2, 3), 3, true, []byte{3, 4, 5}},
		{"real slice empty tail", Bytes(full).Slice(8, 0), 0, true, []byte{}},
		{"virtual clone", Virtual(5).Clone(), 5, false, nil},
		{"real clone", Bytes(full).Clone(), 8, true, full},
		{"empty clone", Bytes([]byte{}).Clone(), 0, false, nil},
	}
	for _, tc := range cases {
		if got := tc.b.Len(); got != tc.len {
			t.Errorf("%s: Len = %d, want %d", tc.name, got, tc.len)
		}
		if got := tc.b.HasData(); got != tc.hasData {
			t.Errorf("%s: HasData = %v, want %v", tc.name, got, tc.hasData)
		}
		d := tc.b.Data()
		if (d == nil) != (tc.data == nil) || !bytes.Equal(d, tc.data) {
			t.Errorf("%s: Data = %v (nil %v), want %v (nil %v)", tc.name, d, d == nil, tc.data, tc.data == nil)
		}
	}
}

// TestBufAliasing: writes through Data and through a real Slice land in the
// parent's storage, a Clone's do not, and Copy moves bytes only when both
// sides are real.
func TestBufAliasing(t *testing.T) {
	p := make([]byte, 8)
	b := Bytes(p)
	b.Data()[0] = 9
	b.Slice(4, 2).Data()[1] = 7
	if p[0] != 9 || p[5] != 7 {
		t.Fatalf("writes through Data and Slice not visible in the parent: %v", p)
	}
	c := b.Clone()
	c.Data()[0] = 1
	if p[0] != 9 {
		t.Fatalf("a write through a clone reached the parent: %v", p)
	}

	src := Bytes([]byte{1, 2, 3})
	for _, tc := range []struct {
		name     string
		dst, src Buf
		want     []byte
	}{
		{"real to real", Bytes(make([]byte, 4)), src, []byte{1, 2, 3, 0}},
		{"real to shorter real", Bytes(make([]byte, 2)), src, []byte{1, 2}},
		{"virtual source", Bytes(make([]byte, 3)), Virtual(3), []byte{0, 0, 0}},
		{"virtual destination", Virtual(3), src, nil},
	} {
		Copy(tc.dst, tc.src)
		if got := tc.dst.Data(); !bytes.Equal(got, tc.want) {
			t.Errorf("Copy %s: destination holds %v, want %v", tc.name, got, tc.want)
		}
	}
	if !bytes.Equal(src.Data(), []byte{1, 2, 3}) {
		t.Errorf("Copy changed its source: %v", src.Data())
	}
}

// TestBufSliceOutOfRangePanics: slicing real storage past its end, or from a
// negative offset, panics as slicing a Go slice does.
func TestBufSliceOutOfRangePanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		off, n int
	}{
		{"past the end", 6, 3},
		{"offset past the end", 9, 0},
		{"negative offset", -1, 2},
		{"negative length", 2, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) %s of an 8-byte buffer did not panic", tc.off, tc.n, tc.name)
				}
			}()
			Bytes(make([]byte, 8)).Slice(tc.off, tc.n)
		}()
	}
}
