package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/paperdata"
)

// TestMFDPairWeightPaperExample reproduces the §3 example: o1 = (-,3,2),
// o2 = (-,2,-), o1 ≺ o2, W(o1,o2) = w2 + λ·w3.
func TestMFDPairWeightPaperExample(t *testing.T) {
	M := data.Missing()
	ds := data.New(3)
	ds.MustAppend("o1", []float64{M, 3, 2})
	ds.MustAppend("o2", []float64{M, 2, M})
	// Note: under smaller-is-better o2 would dominate o1; the paper's §3
	// example uses the abstract relation o1 ≺ o2, so weight only is checked.
	m := core.MFD{Weights: []float64{0.5, 0.3, 0.2}, Lambda: 0.5}
	got := m.PairWeight(ds.Obj(0), ds.Obj(1))
	want := 0.3 + 0.5*0.2 // w2 + λ·w3; dimension 1 missing in both, ignored
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("W(o1,o2) = %v, want %v", got, want)
	}
}

// uniformMFD returns an MFD with unit weights and the given λ.
func uniformMFD(dim int, lambda float64) core.MFD {
	w := make([]float64, dim)
	for i := range w {
		w[i] = 1
	}
	return core.MFD{Weights: w, Lambda: lambda}
}

func TestMFDWeightSymmetricInArguments(t *testing.T) {
	ds := paperdata.Sample()
	m := uniformMFD(4, 0.5)
	a, b := ds.Obj(0), ds.Obj(11)
	if m.PairWeight(a, b) != m.PairWeight(b, a) {
		t.Fatal("PairWeight must be symmetric (depends only on masks)")
	}
}

// TestMFDUniformMatchesPlainScore: with unit weights, λ→irrelevant when all
// objects share one mask, the weighted score is proportional to score(o).
func TestMFDReducesToCountOnCompleteData(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 120, Dim: 3, Cardinality: 10, MissingRate: 0, Dist: gen.IND, Seed: 21})
	m := uniformMFD(3, 0.5)
	items, err := core.TopKMFD(ds, ds.Len(), m)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		want := float64(core.Score(ds, it.Index)) * 3 // each dominance earns w1+w2+w3 = 3
		if math.Abs(it.Weight-want) > 1e-9 {
			t.Fatalf("weighted score(%s) = %v, want %v", it.ID, it.Weight, want)
		}
	}
}

// TestMFDTopKOnSample: MFD ranking on the paper sample must respect the
// weighted ordering and return k items.
func TestMFDTopKOnSample(t *testing.T) {
	ds := paperdata.Sample()
	items, err := core.TopKMFD(ds, 3, uniformMFD(4, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items", len(items))
	}
	if items[0].Weight < items[1].Weight || items[1].Weight < items[2].Weight {
		t.Fatal("MFD result not sorted")
	}
}

func TestMFDValidation(t *testing.T) {
	ds := paperdata.Sample()
	if _, err := core.TopKMFD(ds, 2, core.MFD{Weights: []float64{1}, Lambda: 0.5}); err == nil {
		t.Fatal("wrong weight width accepted")
	}
	if _, err := core.TopKMFD(ds, 2, uniformMFD(4, 0)); err == nil {
		t.Fatal("lambda=0 accepted")
	}
	if _, err := core.TopKMFD(ds, 2, uniformMFD(4, 1)); err == nil {
		t.Fatal("lambda=1 accepted")
	}
}

// TestMFDLambdaMonotone: raising λ cannot lower any object's weighted score
// (more credit for half-observed dimensions).
func TestMFDLambdaMonotone(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 150, Dim: 4, Cardinality: 8, MissingRate: 0.4, Dist: gen.IND, Seed: 22})
	lo, err := core.TopKMFD(ds, ds.Len(), uniformMFD(4, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := core.TopKMFD(ds, ds.Len(), uniformMFD(4, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	loByIdx := map[int]float64{}
	for _, it := range lo {
		loByIdx[it.Index] = it.Weight
	}
	for _, it := range hi {
		if it.Weight+1e-9 < loByIdx[it.Index] {
			t.Fatalf("object %d weight dropped when λ rose: %v -> %v", it.Index, loByIdx[it.Index], it.Weight)
		}
	}
}
