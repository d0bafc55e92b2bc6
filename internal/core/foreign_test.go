package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/data"
	"repro/internal/gen"
)

// randObject builds a random candidate with at least one observed dimension,
// drawing values from a slightly wider domain than the dataset's so foreign
// (absent) values get exercised.
func randObject(rng *rand.Rand, dim, card int) *data.Object {
	o := &data.Object{Values: make([]float64, dim)}
	for o.Mask == 0 {
		for d := 0; d < dim; d++ {
			if rng.Float64() < 0.3 {
				o.Values[d] = math.NaN()
				continue
			}
			// Half-steps land between domain values; ±1 lands outside.
			o.Values[d] = float64(rng.Intn(2*card+2))/2 - 1
			o.Mask |= 1 << uint(d)
		}
	}
	return o
}

// bruteForeign is the reference partial score.
func bruteForeign(ds *data.Dataset, cand *data.Object) int {
	n := 0
	for i := 0; i < ds.Len(); i++ {
		if cand.Dominates(ds.Obj(i)) {
			n++
		}
	}
	return n
}

// TestForeignScorer checks the index-backed foreign partial scorer — exact
// scores and the threshold-aware bound — against brute force, across every
// index flavour the sharded plans use and including in-set candidates
// (which must score as if absent: no self-domination).
func TestForeignScorer(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 400, Dim: 4, Cardinality: 12, MissingRate: 0.25, Dist: gen.IND, Seed: 7})
	rng := rand.New(rand.NewSource(99))
	builds := map[string]bitmapidx.Options{
		"value-granular": {},
		"4 bins":         {Bins: []int{4}},
		"3 bins":         {Bins: []int{3}},
	}
	cands := make([]*data.Object, 0, 60)
	for i := 0; i < 40; i++ {
		cands = append(cands, randObject(rng, ds.Dim(), 12))
	}
	for i := 0; i < 20; i++ { // in-set rows are foreign candidates too
		cands = append(cands, ds.Obj(rng.Intn(ds.Len())))
	}
	for name, opts := range builds {
		ix := bitmapidx.Build(ds, opts)
		fs := NewForeignScorer(ds, ix)
		for ci, cand := range cands {
			want := bruteForeign(ds, cand)
			if got, _ := fs.Score(cand, NoBound, NoBudget); got != want {
				t.Fatalf("%s: candidate %d: Score=%d want %d", name, ci, got, want)
			}
			// The bound must never undercut the true partial score.
			bound, above := fs.BoundAbove(cand, -1)
			if !above || bound < want {
				t.Fatalf("%s: candidate %d: bound %d (above=%v) < score %d", name, ci, bound, above, want)
			}
			// Threshold-aware contract: above=false only when bound <= tau.
			if _, ok := fs.BoundAbove(cand, bound); ok {
				t.Fatalf("%s: candidate %d: BoundAbove(bound=%d) reported above", name, ci, bound)
			}
			if got, ok := fs.BoundAbove(cand, bound-1); bound > 0 && (!ok || got != bound) {
				t.Fatalf("%s: candidate %d: BoundAbove(bound-1)=(%d,%v) want (%d,true)", name, ci, got, ok, bound)
			}
		}
	}
}

// TestForeignScoreExhaustive pins the exhaustive scorer to the same
// reference (it is the reference, so this guards accidental divergence).
func TestForeignScoreExhaustive(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 200, Dim: 3, Cardinality: 8, MissingRate: 0.3, Dist: gen.AC, Seed: 3})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		cand := randObject(rng, ds.Dim(), 8)
		if got, want := ForeignScore(ds, cand), bruteForeign(ds, cand); got != want {
			t.Fatalf("candidate %d: ForeignScore=%d want %d", i, got, want)
		}
	}
}

// TestForeignPartialsSumToGlobalScore is the additivity identity the whole
// sharded design rests on: for an in-set object, the per-slice partials must
// sum to the unsharded score, for any slicing.
func TestForeignPartialsSumToGlobalScore(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 300, Dim: 4, Cardinality: 10, MissingRate: 0.2, Dist: gen.IND, Seed: 11})
	for _, n := range []int{1, 2, 3, 4, 7} {
		scorers := make([]*ForeignScorer, n)
		for s := 0; s < n; s++ {
			lo, hi := s*ds.Len()/n, (s+1)*ds.Len()/n
			slice := ds.Slice(lo, hi)
			scorers[s] = NewForeignScorer(slice, bitmapidx.Build(slice, bitmapidx.Options{Bins: []int{4}}))
		}
		for i := 0; i < ds.Len(); i += 17 {
			sum := 0
			for _, fs := range scorers {
				part, _ := fs.Score(ds.Obj(i), NoBound, NoBudget)
				sum += part
			}
			if want := Score(ds, i); sum != want {
				t.Fatalf("n=%d object %d: partial sum %d want %d", n, i, sum, want)
			}
		}
	}
}
