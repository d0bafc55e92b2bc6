package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
)

// randVec returns a vector of n bits with the given set-bit density.
func randVec(rng *rand.Rand, n int, density float64) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

func TestAnd2Into(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1000} {
		a := randVec(rng, n, 0.5)
		b := randVec(rng, n, 0.5)
		want := a.Clone().And(b)
		dst := randVec(rng, n, 0.5) // stale contents must be ignored
		if got := And2Into(dst, a, b); !got.Equal(want) {
			t.Errorf("n=%d: And2Into mismatch", n)
		}
		// Aliasing dst with an input must work.
		aa := a.Clone()
		if got := And2Into(aa, aa, b); !got.Equal(want) {
			t.Errorf("n=%d: aliased And2Into mismatch", n)
		}
	}
}

func TestAndPairInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 64, 129, 777} {
		q, p := randVec(rng, n, 0.7), randVec(rng, n, 0.7)
		cq, cp := randVec(rng, n, 0.5), randVec(rng, n, 0.5)
		wantQ := q.Clone().And(cq)
		wantP := p.Clone().And(cp)
		AndPairInto(q, p, cq, cp)
		if !q.Equal(wantQ) || !p.Equal(wantP) {
			t.Errorf("n=%d: AndPairInto mismatch", n)
		}
	}
}

func TestIntersectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 64, 100, 500} {
		for _, ways := range []int{1, 2, 3, 5} {
			vs := make([]*Vector, ways)
			for i := range vs {
				vs[i] = randVec(rng, n, 0.6)
			}
			want := IntersectAll(vs...).Count()
			if got := IntersectCount(vs...); got != want {
				t.Errorf("n=%d ways=%d: IntersectCount = %d, want %d", n, ways, got, want)
			}
		}
	}
}

func TestIntersectCountAbove(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 64, 200, 1000} {
		vs := []*Vector{randVec(rng, n, 0.8), randVec(rng, n, 0.8), randVec(rng, n, 0.8)}
		exact := IntersectAll(vs...).Count()
		for _, tau := range []int{-1, 0, exact - 1, exact, exact + 1, n} {
			count, above := IntersectCountAbove(tau, vs...)
			if wantAbove := exact > tau; above != wantAbove {
				t.Errorf("n=%d tau=%d: above = %v, want %v", n, tau, above, wantAbove)
			}
			if above && count != exact {
				t.Errorf("n=%d tau=%d: count = %d, want %d", n, tau, count, exact)
			}
		}
	}
}

// kernelLengths are the vector lengths the blocked kernels are held to: a
// partial word, the word boundary, a partial and a whole block, one bit into
// the next block, and the served shape's row count.
var kernelLengths = []int{1, 63, 64, 65, blockWords*wordBits - 1, blockWords * wordBits, blockWords*wordBits + 1, 100_000}

// wordCount is the per-word reference of IntersectCountAbove: |∩ vs|, one
// word at a time.
func wordCount(vs []*Vector) int {
	c := 0
	for i := range vs[0].words {
		w := vs[0].words[i]
		for _, v := range vs[1:] {
			w &= v.words[i]
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// TestIntersectCountAboveBlocked holds the blocked count to the per-word
// reference at every τ around the count — where the per-block bail-out
// either fires or must not — and with no τ at all, for one to five columns;
// dense columns (density 1) also at τ one below the length, where the first
// block is cut short and every word may bail.
func TestIntersectCountAboveBlocked(t *testing.T) {
	const noTau = -1 << 62
	rng := rand.New(rand.NewSource(6))
	for _, n := range kernelLengths {
		for _, ways := range []int{1, 2, 3, 5} {
			for _, density := range []float64{0.9, 1} {
				vs := make([]*Vector, ways)
				for i := range vs {
					vs[i] = randVec(rng, n, density)
				}
				want := wordCount(vs)
				for _, tau := range []int{noTau, want - 2, want - 1, want, want + 1, want + 2, n - 1} {
					count, above := IntersectCountAbove(tau, vs...)
					switch {
					case above != (want > tau):
						t.Errorf("n=%d ways=%d tau=%d: above = %v with count %d", n, ways, tau, above, want)
					case above && count != want:
						t.Errorf("n=%d ways=%d tau=%d: count = %d, want %d", n, ways, tau, count, want)
					case !above && count != 0:
						t.Errorf("n=%d ways=%d tau=%d: not above but count %d", n, ways, tau, count)
					}
				}
			}
		}
	}
}

// andTie and orAndNot are the word kernels of the cascade TieCount replaced,
// kept here as its reference: v &= (q &^ p) | m and v |= q &^ p, a nil q
// reading as all ones.
func andTie(v, q, p, m *Vector) {
	for i := range v.words {
		qw := ^uint64(0)
		if q != nil {
			qw = q.words[i]
		}
		v.words[i] &= qw&^p.words[i] | m.words[i]
	}
}

func orAndNot(v, q, p *Vector) {
	for i := range v.words {
		qw := ^uint64(0)
		if q != nil {
			qw = q.words[i]
		}
		v.words[i] |= qw &^ p.words[i]
	}
}

// cascadeTie is the cascade TieCount replaced: E, ∩Q and W as three vectors,
// one pass per term each, then a count; W comes back ANDed with ∩Q.
func cascadeTie(n int, terms []TieTerm) (int, *Vector) {
	e, qa, w := NewOnes(n), NewOnes(n), New(n)
	for _, t := range terms {
		if t.Tie == TieExact {
			andTie(e, t.Q, t.P, t.M)
		} else {
			e.And(t.M)
		}
		if t.Q != nil {
			qa.And(t.Q)
		}
		if t.Tie == TieWalk {
			orAndNot(w, t.Q, t.P)
		}
	}
	return e.Count(), w.And(qa)
}

// TestTieCountMatchesCascade holds the fused blocked pass to the cascade on
// random columns shaped like an index's (M ⊆ P ⊆ Q): every mix of the three
// tie kinds, bucket-0 terms (nil Q), no terms at all, and every kernel length
// — trimmed last words and block edges included. When no term walks, w must
// be left as it was.
func TestTieCountMatchesCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range kernelLengths {
		for trial := 0; trial < 12; trial++ {
			terms := make([]TieTerm, trial%5)
			for i := range terms {
				m := randVec(rng, n, 0.2)
				p := randVec(rng, n, 0.3).Or(m)
				q := randVec(rng, n, 0.5).Or(p)
				terms[i] = TieTerm{Q: q, P: p, M: m, Tie: Tie(rng.Intn(3))}
				if rng.Intn(3) == 0 {
					terms[i].Q = nil
				}
			}
			walk := false
			for _, tm := range terms {
				walk = walk || tm.Tie == TieWalk
			}
			wantE, wantW := cascadeTie(n, terms)
			w := randVec(rng, n, 0.5)
			before := w.Clone()
			if got := TieCount(w, terms); got != wantE {
				t.Fatalf("n=%d terms=%+v: |E| = %d, cascade %d", n, terms, got, wantE)
			}
			if walk && !w.Equal(wantW) {
				t.Fatalf("n=%d: W ∩ ∩Q differs from the cascade's", n)
			}
			if !walk && !w.Equal(before) {
				t.Fatalf("n=%d: w written with no term walking", n)
			}
		}
	}
}

// TestScratchKernelsMatch holds the Scratch kernels to the package-level
// ones with one Scratch reused across every call — lengths up and down,
// thresholds that bail and that do not, walking terms and none — so nothing a
// call leaves in the blocks reaches the next one.
func TestScratchKernelsMatch(t *testing.T) {
	const noTau = -1 << 62
	rng := rand.New(rand.NewSource(8))
	var s Scratch
	for round := 0; round < 2; round++ {
		for _, n := range kernelLengths {
			vs := make([]*Vector, 5)
			for i := range vs {
				vs[i] = randVec(rng, n, 0.9)
			}
			want := wordCount(vs)
			for _, tau := range []int{noTau, want - 1, want} {
				c, above := s.IntersectCountAbove(tau, vs...)
				if wc, wa := IntersectCountAbove(tau, vs...); c != wc || above != wa {
					t.Fatalf("n=%d tau=%d: Scratch (%d, %v), package (%d, %v)", n, tau, c, above, wc, wa)
				}
			}
			terms := make([]TieTerm, 3)
			for i := range terms {
				m := randVec(rng, n, 0.2)
				p := randVec(rng, n, 0.3).Or(m)
				terms[i] = TieTerm{Q: randVec(rng, n, 0.5).Or(p), P: p, M: m, Tie: Tie(rng.Intn(3))}
			}
			w, wantW := randVec(rng, n, 0.5), New(n)
			wantW.CopyFrom(w)
			if got, want := s.TieCount(w, terms), TieCount(wantW, terms); got != want || !w.Equal(wantW) {
				t.Fatalf("n=%d terms=%+v: Scratch |E| = %d, package %d (W equal: %v)", n, terms, got, want, w.Equal(wantW))
			}
		}
	}
}
