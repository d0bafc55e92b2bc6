package wah

import (
	"testing"

	"repro/internal/bitvec"
)

// fromBytes expands fuzz bytes into a bit vector (8 bits per byte).
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

// FuzzRoundTrip: Compress/DecompressInto is the identity for arbitrary bit
// patterns, into a fresh destination and into one holding stale bits.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x01, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := fromBytes(data)
		c := Compress(v)
		if got := decompress(c); !got.Equal(v) {
			t.Fatal("round trip mismatch")
		}
		dst := bitvec.NewOnes(v.Len())
		c.DecompressInto(dst)
		if !dst.Equal(v) {
			t.Fatal("DecompressInto left stale bits")
		}
	})
}
