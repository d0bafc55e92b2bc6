package codec_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/compress/codec"
	"repro/internal/compress/concise"
	"repro/internal/compress/wah"
)

// vectors returns a spread of bit populations that exercise the group
// reader/writer: empty, full, sparse, dense, run-heavy and word-misaligned
// lengths (31-bit groups never line up with 64-bit words).
func vectors(t *testing.T) []*bitvec.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var out []*bitvec.Vector
	for _, n := range []int{1, 30, 31, 32, 62, 63, 64, 100, 1000, 4096} {
		out = append(out, bitvec.New(n), bitvec.NewOnes(n))
		sparse := bitvec.New(n)
		for i := 0; i < n; i += 37 {
			sparse.Set(i)
		}
		out = append(out, sparse)
		random := bitvec.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				random.Set(i)
			}
		}
		out = append(out, random)
		runs := bitvec.New(n)
		for i := 0; i < n; i++ {
			if (i/93)%2 == 0 {
				runs.Set(i)
			}
		}
		out = append(out, runs)
	}
	return out
}

// TestSliceWriterRoundTrip drives the shared group reader/writer directly:
// slicing a vector into 31-bit groups and re-emitting them must reproduce
// the vector bit for bit.
func TestSliceWriterRoundTrip(t *testing.T) {
	for vi, v := range vectors(t) {
		w := codec.NewWriterInto(bitvec.New(v.Len()))
		for g := 0; g < codec.NumGroups(v.Len()); g++ {
			w.Emit(codec.Slice(v, g), 1)
		}
		if !w.Vector().Equal(v) {
			t.Fatalf("vector %d (len %d): Slice/Emit round trip mismatch", vi, v.Len())
		}
	}
}

// TestWriterInto checks NewWriterInto resets stale destination contents.
func TestWriterInto(t *testing.T) {
	v := bitvec.MustParse("1011001110001")
	dst := bitvec.NewOnes(v.Len())
	w := codec.NewWriterInto(dst)
	for g := 0; g < codec.NumGroups(v.Len()); g++ {
		w.Emit(codec.Slice(v, g), 1)
	}
	if !dst.Equal(v) {
		t.Fatalf("NewWriterInto left stale bits: got %v want %v", dst, v)
	}
}

// TestCodecRoundTrip compresses and decompresses every fixture through both
// codecs.
func TestCodecRoundTrip(t *testing.T) {
	for vi, v := range vectors(t) {
		if got := unwah(wah.Compress(v), v.Len()); !got.Equal(v) {
			t.Fatalf("vector %d (len %d): WAH round trip mismatch", vi, v.Len())
		}
		if got := unconcise(concise.Compress(v), v.Len()); !got.Equal(v) {
			t.Fatalf("vector %d (len %d): CONCISE round trip mismatch", vi, v.Len())
		}
	}
}

// TestCrossCodecEquivalence checks the two codecs decode every fixture to
// the same bits, and the Fig. 10 size relation between them: a CONCISE
// stream is never longer than the WAH stream of the same vector (its mixed
// sequence words absorb what WAH stores as literal + fill).
func TestCrossCodecEquivalence(t *testing.T) {
	for vi, v := range vectors(t) {
		w, c := wah.Compress(v), concise.Compress(v)
		if !unwah(w, v.Len()).Equal(unconcise(c, v.Len())) {
			t.Fatalf("vector %d (len %d): codecs decode to different bits", vi, v.Len())
		}
		if c.SizeBytes() > w.SizeBytes() {
			t.Fatalf("vector %d (len %d): CONCISE %dB > WAH %dB", vi, v.Len(), c.SizeBytes(), w.SizeBytes())
		}
	}
}

// TestCompressionNoWorseThanWAHOnIndexColumns: range-encoded index columns
// are long 1-runs with isolated 0 bits, the pattern mixed sequences absorb;
// CONCISE must compress them at least as well as WAH, the paper's Fig. 10
// finding — and strictly better on a lone bit in a long run.
func TestCompressionNoWorseThanWAHOnIndexColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		v := bitvec.NewOnes(50_000)
		for i := 0; i < 30; i++ {
			v.Clear(rng.Intn(50_000))
		}
		c := concise.Compress(v).SizeBytes()
		w := wah.Compress(v).SizeBytes()
		if c > w {
			t.Fatalf("trial %d: CONCISE %dB > WAH %dB", trial, c, w)
		}
	}
	lone := bitvec.New(31 * 100)
	lone.Set(5)
	if c, w := concise.Compress(lone).SizeBytes(), wah.Compress(lone).SizeBytes(); c != 4 || w != 8 {
		t.Fatalf("lone bit: CONCISE %dB (want 4), WAH %dB (want 8)", c, w)
	}
}

// unconcise decodes a CONCISE bitmap of n bits into a fresh vector.
func unconcise(b *concise.Bitmap, n int) *bitvec.Vector {
	v := bitvec.New(n)
	b.DecompressInto(v)
	return v
}

// unwah decodes a WAH bitmap of n bits into a fresh vector.
func unwah(b *wah.Bitmap, n int) *bitvec.Vector {
	v := bitvec.New(n)
	b.DecompressInto(v)
	return v
}

// TestDecompressIntoReuse checks DecompressInto overwrites stale buffers.
func TestDecompressIntoReuse(t *testing.T) {
	vs := vectors(t)
	for _, n := range []int{64, 1000} {
		dst := bitvec.NewOnes(n)
		for _, v := range vs {
			if v.Len() != n {
				continue
			}
			wah.Compress(v).DecompressInto(dst)
			if !dst.Equal(v) {
				t.Fatalf("len %d: WAH DecompressInto left stale bits", n)
			}
			dst.Not() // poison
			concise.Compress(v).DecompressInto(dst)
			if !dst.Equal(v) {
				t.Fatalf("len %d: CONCISE DecompressInto left stale bits", n)
			}
			dst.Not()
		}
	}
}
