package impute

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
)

func TestImputeProducesCompleteDataset(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 200, Dim: 5, Cardinality: 10, MissingRate: 0.3, Dist: gen.IND, Seed: 1})
	out := Impute(ds, DefaultConfig(1))
	if out.Len() != ds.Len() || out.Dim() != ds.Dim() {
		t.Fatalf("shape %dx%d", out.Len(), out.Dim())
	}
	if out.MissingRate() != 0 {
		t.Fatalf("missing rate %v after imputation", out.MissingRate())
	}
	// Observed cells must be passed through untouched.
	for i := 0; i < ds.Len(); i++ {
		o, c := ds.Obj(i), out.Obj(i)
		for d := 0; d < ds.Dim(); d++ {
			if o.Observed(d) && o.Values[d] != c.Values[d] {
				t.Fatalf("observed cell (%d,%d) changed: %v -> %v", i, d, o.Values[d], c.Values[d])
			}
		}
	}
}

// TestImputeRecoversLowRankStructure: on a genuinely rank-1 matrix with a
// third of the cells hidden, the factorization should predict the hidden
// cells much better than the global mean does.
func TestImputeRecoversLowRankStructure(t *testing.T) {
	const n, dim = 150, 8
	truth := make([][]float64, n)
	ds := data.New(dim)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		truth[i] = make([]float64, dim)
		ri := 1 + float64(i%10) // row factor
		for d := 0; d < dim; d++ {
			cd := 1 + float64(d)/2 // column factor
			truth[i][d] = ri * cd
			row[d] = truth[i][d]
		}
		// Hide a deterministic third of the cells.
		for d := (i % 3); d < dim; d += 3 {
			if d != (i+1)%dim { // keep at least one observed
				row[d] = data.Missing()
			}
		}
		ds.MustAppend("r", row)
	}
	cfg := DefaultConfig(2)
	cfg.Iterations = 120
	cfg.LearnRate = 0.02
	out := Impute(ds, cfg)

	// Global mean baseline.
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			if ds.Obj(i).Observed(d) {
				sum += ds.Obj(i).Values[d]
				cnt++
			}
		}
	}
	mean := sum / float64(cnt)
	var mseMF, mseMean float64
	var hidden int
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			if !ds.Obj(i).Observed(d) {
				eMF := out.Obj(i).Values[d] - truth[i][d]
				eM := mean - truth[i][d]
				mseMF += eMF * eMF
				mseMean += eM * eM
				hidden++
			}
		}
	}
	if hidden == 0 {
		t.Fatal("no hidden cells")
	}
	mseMF /= float64(hidden)
	mseMean /= float64(hidden)
	if mseMF > mseMean/2 {
		t.Fatalf("MF MSE %v not clearly better than mean MSE %v", mseMF, mseMean)
	}
}

func TestImputeDeterministicBySeed(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 100, Dim: 4, Cardinality: 8, MissingRate: 0.3, Dist: gen.IND, Seed: 3})
	a := Impute(ds, DefaultConfig(7))
	b := Impute(ds, DefaultConfig(7))
	for i := 0; i < ds.Len(); i++ {
		for d := 0; d < ds.Dim(); d++ {
			if a.Obj(i).Values[d] != b.Obj(i).Values[d] {
				t.Fatal("same seed, different imputation")
			}
		}
	}
}

func TestImputeInvalidConfigPanics(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 10, Dim: 2, Cardinality: 4, MissingRate: 0.2, Dist: gen.IND, Seed: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Impute(ds, Config{})
}

func TestJaccardDistance(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"x", "y"}, []string{"x", "y"}, 0},
		{[]string{"x"}, []string{"y"}, 1},
		{[]string{"x", "y"}, []string{"y", "z"}, 1 - 1.0/3},
		{nil, nil, 0},
		{[]string{"x"}, nil, 1},
	}
	for _, c := range cases {
		if got := JaccardDistance(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DJ(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestJaccardTableFourBound: when the two answer sets share more than half
// their objects, D_J < 2/3 — the criterion §5.2 uses to read Table 4.
func TestJaccardTableFourBound(t *testing.T) {
	k := 16
	a := make([]string, k)
	b := make([]string, k)
	for i := 0; i < k; i++ {
		a[i] = string(rune('a' + i))
		if i < k/2+1 {
			b[i] = a[i] // share k/2+1
		} else {
			b[i] = string(rune('A' + i))
		}
	}
	if dj := JaccardDistance(a, b); dj >= 2.0/3 {
		t.Fatalf("DJ = %v, want < 2/3 when sharing > k/2", dj)
	}
}

// TestCompareTKDOnCorrelatedData: on NBA-style correlated data the TKD answer
// over the imputed dataset shares more than k/2 objects with the answer over
// the incomplete one — a Jaccard distance below 2/3, the Table 4 outcome.
func TestCompareTKDOnCorrelatedData(t *testing.T) {
	if testing.Short() {
		t.Skip("imputation comparison in -short mode")
	}
	ds := gen.NBA(5)
	// Scale down for test time: take every 20th record.
	small := data.New(ds.Dim())
	for i := 0; i < ds.Len(); i += 20 {
		o := ds.Obj(i)
		small.MustAppend(o.ID, o.Values)
	}
	resA, _ := core.ESB(small, 8)
	resB, _ := core.ESB(Impute(small, DefaultConfig(6)), 8)
	dj := JaccardDistance(resA.IDs(), resB.IDs())
	if dj < 0 || dj > 1 {
		t.Fatalf("DJ out of range: %v", dj)
	}
	if dj >= 2.0/3 {
		t.Fatalf("DJ = %v, want < 2/3 (shared answers > k/2, Table 4's finding)", dj)
	}
}
