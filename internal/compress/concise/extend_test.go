package concise

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

// concat builds the dense concatenation of a and b.
func concat(a, b *bitvec.Vector) *bitvec.Vector {
	out := bitvec.New(a.Len() + b.Len())
	for i := 0; i < a.Len(); i++ {
		out.SetBool(i, a.Get(i))
	}
	for i := 0; i < b.Len(); i++ {
		out.SetBool(a.Len()+i, b.Get(i))
	}
	return out
}

// TestExtendDifferential checks Extend against Compress of the dense
// concatenation across lengths straddling group boundaries and densities
// that produce literal, pure-sequence and mixed-sequence (flipped-bit)
// tails — and that the receiver is left untouched (its words may be shared
// with live readers).
func TestExtendDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lens := []int{0, 1, 30, 31, 32, 61, 62, 63, 93, 100, 310, 1000}
	extras := []int{0, 1, 7, 31, 64, 200}
	for _, n := range lens {
		for _, e := range extras {
			for _, density := range []float64{0, 0.01, 0.5, 0.99, 1} {
				base := randomVector(rng, n, density)
				extra := randomVector(rng, e, density)
				bm := Compress(base)
				wordsBefore := append([]uint32(nil), bm.words...)
				got := bm.Extend(extra)
				want := Compress(concat(base, extra))
				if !got.Decompress().Equal(want.Decompress()) {
					t.Fatalf("n=%d e=%d density=%g: Extend bits diverge from Compress(concat)", n, e, density)
				}
				if got.NBits() != n+e {
					t.Fatalf("n=%d e=%d: NBits=%d", n, e, got.NBits())
				}
				if bm.nbits != n || len(bm.words) != len(wordsBefore) {
					t.Fatalf("n=%d e=%d: Extend mutated the receiver header", n, e)
				}
				for i, w := range bm.words {
					if w != wordsBefore[i] {
						t.Fatalf("n=%d e=%d: Extend mutated receiver word %d", n, e, i)
					}
				}
			}
		}
	}
}

// TestExtendMixedSequenceTail pins the CONCISE-specific popTail arm: a mixed
// sequence word (flipped bit in its first group) whose trailing pure-fill
// group is the partial tail being extended.
func TestExtendMixedSequenceTail(t *testing.T) {
	// 100 bits with only bit 3 set: one mixed 0-sequence covering all four
	// groups, the last of which is the 7-bit partial tail.
	base := bitvec.New(100)
	base.Set(3)
	bm := Compress(base)
	if bm.Words() != 1 {
		t.Fatalf("fixture not a single mixed sequence: %d words", bm.Words())
	}
	extra := bitvec.NewOnes(40)
	got := bm.Extend(extra)
	want := Compress(concat(base, extra))
	if !got.Decompress().Equal(want.Decompress()) {
		t.Fatal("mixed-sequence tail: Extend diverges from Compress(concat)")
	}
}
