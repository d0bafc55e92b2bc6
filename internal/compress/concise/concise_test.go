package concise

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
)

func randomVector(rng *rand.Rand, n int, density float64) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

func TestRoundTripSmall(t *testing.T) {
	cases := []string{
		"",
		"1",
		"0",
		"101",
		"0000000000000000000000000000000",
		"1111111111111111111111111111111",
		"11111111111111111111111111111110",
		"0000000000000000000000000000000" + "1000000000000000000000000000000",
	}
	for _, s := range cases {
		v := bitvec.MustParse(s)
		got := decompress(Compress(v))
		if !got.Equal(v) {
			t.Errorf("round trip failed for %q: got %q", s, got.String())
		}
	}
}

func TestRoundTripDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 31, 32, 62, 63, 100, 1000, 12345} {
		for _, d := range []float64{0, 0.01, 0.5, 0.99, 1} {
			v := randomVector(rng, n, d)
			got := decompress(Compress(v))
			if !got.Equal(v) {
				t.Fatalf("round trip failed n=%d d=%g", n, d)
			}
		}
	}
}

func TestMixedSequenceAbsorbsLoneBit(t *testing.T) {
	// A single set bit followed by a long run of zeros: CONCISE stores one
	// mixed 0-sequence word (WAH needs a literal plus a fill — the Fig. 10
	// size comparison lives in compress/codec's tests).
	v := bitvec.New(31 * 100)
	v.Set(5)
	c := Compress(v)
	if len(c.words) != 1 {
		t.Fatalf("CONCISE words = %d, want 1", len(c.words))
	}
	if !decompress(c).Equal(v) {
		t.Fatal("round trip failed")
	}
}

func TestMixedOneSequence(t *testing.T) {
	// All ones except a single zero bit, then all-ones groups.
	v := bitvec.NewOnes(31 * 50)
	v.Clear(7)
	c := Compress(v)
	if len(c.words) != 1 {
		t.Fatalf("words = %d, want 1", len(c.words))
	}
	if !decompress(c).Equal(v) {
		t.Fatal("round trip failed")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		v := bitvec.FromBits(bits)
		return decompress(Compress(v)).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompressDense(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	v := randomVector(rng, 100_000, 0.9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(v)
	}
}

// decompress is DecompressInto a fresh vector.
func decompress(b *Bitmap) *bitvec.Vector {
	v := bitvec.New(b.nbits)
	b.DecompressInto(v)
	return v
}
