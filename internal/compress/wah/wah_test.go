package wah

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
)

// decompress decodes b into a fresh vector.
func decompress(b *Bitmap) *bitvec.Vector {
	v := bitvec.New(b.nbits)
	b.DecompressInto(v)
	return v
}

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
		"0000000000000000000000000000000",  // exactly one zero group
		"1111111111111111111111111111111",  // exactly one ones group
		"11111111111111111111111111111110", // group + 1 bit
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
	rng := rand.New(rand.NewSource(1))
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

func TestFillMerging(t *testing.T) {
	// 10 all-zero groups must compress to a single fill word.
	v := bitvec.New(31 * 10)
	b := Compress(v)
	if len(b.words) != 1 {
		t.Fatalf("zero fill: %d words, want 1", len(b.words))
	}
	// 10 all-one groups likewise.
	v = bitvec.NewOnes(31 * 10)
	b = Compress(v)
	if len(b.words) != 1 {
		t.Fatalf("ones fill: %d words, want 1", len(b.words))
	}
}

func TestMixedRuns(t *testing.T) {
	// zeros, a literal, ones => 3 words.
	v := bitvec.New(31 * 5)
	v.Set(31*2 + 3) // literal group in the middle
	for i := 31 * 3; i < 31*5; i++ {
		v.Set(i)
	}
	b := Compress(v)
	if len(b.words) != 3 {
		t.Fatalf("got %d words, want 3", len(b.words))
	}
	if !decompress(b).Equal(v) {
		t.Fatal("round trip failed")
	}
}

func TestCompressionRatioOnRuns(t *testing.T) {
	// A long run-structured vector must compress well: the range-encoded
	// columns of the TKD bitmap index look exactly like this.
	v := bitvec.NewOnes(100_000)
	for i := 0; i < 100; i++ {
		v.Clear(i)
	}
	b := Compress(v)
	if b.SizeBytes() >= v.SizeBytes() {
		t.Fatalf("no compression: %d >= %d", b.SizeBytes(), v.SizeBytes())
	}
	if !decompress(b).Equal(v) {
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

func TestLongFillSaturation(t *testing.T) {
	// More groups than one fill word can count is impractical to allocate
	// (2^30 groups), so instead exercise the counter merge path heavily.
	v := bitvec.New(31 * 3000)
	b := Compress(v)
	if len(b.words) != 1 {
		t.Fatalf("got %d words, want 1", len(b.words))
	}
	if decompress(b).Count() != 0 {
		t.Fatal("count nonzero")
	}
}

func BenchmarkCompressDense(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	v := randomVector(rng, 100_000, 0.9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(v)
	}
}
