package concise

import (
	"testing"

	"repro/internal/bitvec"
)

func fromBytes(data []byte) *bitvec.Vector {
	v := bitvec.New(len(data) * 8)
	for i, b := range data {
		for j := 0; j < 8; j++ {
			if b&(1<<j) != 0 {
				v.Set(i*8 + j)
			}
		}
	}
	return v
}

// FuzzCompressedKernels: the run-native kernels (IntersectCount,
// IntersectCountAbove) agree with the dense bitvec reference on arbitrary
// column triples.
func FuzzCompressedKernels(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{}, 0)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, []byte{0x00, 0x00, 0xFF, 0xFF}, []byte{0x0F, 0xF0, 0x0F, 0xF0}, 3)
	f.Add([]byte{0x01}, []byte{0x80}, []byte{0xFF}, -1)
	f.Add(make([]byte, 64), make([]byte, 64), make([]byte, 64), 100)
	f.Fuzz(func(t *testing.T, a, b, c []byte, tau int) {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if len(c) < n {
			n = len(c)
		}
		cols := []*bitvec.Vector{fromBytes(a[:n]), fromBytes(b[:n]), fromBytes(c[:n])}
		bms := make([]*Bitmap, len(cols))
		for i, v := range cols {
			bms[i] = Compress(v)
		}

		exact := bitvec.IntersectCount(cols...)
		if got := IntersectCount(bms...); got != exact {
			t.Fatalf("IntersectCount = %d, dense = %d", got, exact)
		}
		gc, ga := IntersectCountAbove(tau, bms...)
		wc, wa := bitvec.IntersectCountAbove(tau, cols...)
		if ga != wa || (ga && gc != wc) {
			t.Fatalf("IntersectCountAbove(%d) = (%d,%v), dense = (%d,%v)", tau, gc, ga, wc, wa)
		}
	})
}

// FuzzRoundTrip: Compress/Decompress identity and single-bitmap count
// agreement for arbitrary bit patterns.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := fromBytes(data)
		c := Compress(v)
		if got := c.Decompress(); !got.Equal(v) {
			t.Fatal("round trip mismatch")
		}
		if got := IntersectCount(c); got != v.Count() {
			t.Fatalf("IntersectCount %d, want %d", got, v.Count())
		}
	})
}
