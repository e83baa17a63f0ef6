package mpi

import (
	"encoding/binary"
	"math"
)

// Float64 payloads travel as little-endian IEEE-754, the layout SumFloat64
// and MaxFloat64 reduce; this is the one codec for it.

// PutFloat64 stores v in the first 8 bytes of b.
func PutFloat64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

// GetFloat64 loads the float64 in the first 8 bytes of b.
func GetFloat64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// Float64sToBytes encodes a float64 slice into little-endian bytes.
func Float64sToBytes(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		PutFloat64(b[8*i:], x)
	}
	return b
}

// BytesToFloat64s decodes little-endian bytes into float64s.
func BytesToFloat64s(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = GetFloat64(b[8*i:])
	}
	return xs
}
