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

// FuzzRoundTrip: Compress/Decompress identity for arbitrary bit patterns,
// and through Persist, Restore and DecompressInto into a dirty vector — the
// path an index file's CONCISE column takes at load.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := fromBytes(data)
		c := Compress(v)
		if got := decompress(c); !got.Equal(v) {
			t.Fatal("round trip mismatch")
		}
		nbits, words := c.Persist()
		into := bitvec.NewOnes(nbits)
		Restore(nbits, words).DecompressInto(into)
		if !into.Equal(v) {
			t.Fatal("restored round trip mismatch")
		}
	})
}
