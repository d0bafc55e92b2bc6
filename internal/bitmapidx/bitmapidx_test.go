package bitmapidx_test

import (
	"bytes"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/bitvec"
	"repro/internal/compress/concise"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/paperdata"
)

func buildSample(t *testing.T, opts bitmapidx.Options) *bitmapidx.Index {
	t.Helper()
	return bitmapidx.Build(paperdata.Sample(), opts)
}

// TestFig6ColumnEncodings checks the paper's spot encodings of Fig. 6
// through the vertical columns: C1's dimension-1 sub-string is 10000, D4's
// is 11100, and any missing value reads as all ones.
func TestFig6ColumnEncodings(t *testing.T) {
	ix := buildSample(t, bitmapidx.Options{})
	// Bucket/rank bookkeeping behind the encodings: C1's value 2 has rank 0
	// (sub-string 10000), D4's value 4 has rank 2 (sub-string 11100).
	if got := ix.Rank(paperdata.Index("C1"), 0); got != 0 {
		t.Fatalf("rank(C1, dim1) = %d, want 0", got)
	}
	if got := ix.Rank(paperdata.Index("D4"), 0); got != 2 {
		t.Fatalf("rank(D4, dim1) = %d, want 2", got)
	}
	if got := ix.Rank(paperdata.Index("A1"), 0); got != -1 {
		t.Fatalf("rank(A1, dim1) = %d, want -1 (missing)", got)
	}
}

// TestFig6C2Vectors transcribes the [Pi]/[Qi] bit vectors the paper derives
// for object C2 in Example 3 and checks them verbatim.
func TestFig6C2Vectors(t *testing.T) {
	ix := buildSample(t, bitmapidx.Options{})
	c2 := paperdata.Index("C2")
	q, p := ix.NewCursor().QP(c2)

	// Q = ∩Qi − {C2}: all objects except C2 itself (19 ones).
	wantQ := bitvec.NewOnes(20)
	wantQ.Clear(c2)
	if !q.Equal(wantQ) {
		t.Fatalf("Q(C2) = %s, want %s", q.String(), wantQ.String())
	}
	if q.Count() != 19 {
		t.Fatalf("|Q(C2)| = %d, want 19 (MaxBitScore of Fig. 8)", q.Count())
	}

	// [P] = ∩Pi = 10111101110011110011 per Example 3, |P| = 14.
	wantP := bitvec.MustParse("10111101110011110011")
	if !p.Equal(wantP) {
		t.Fatalf("P(C2) = %s, want %s", p.String(), wantP.String())
	}
	if p.Count() != 14 {
		t.Fatalf("|P(C2)| = %d, want 14", p.Count())
	}

	// Q − P = {A2, B2, C1, D2, D3} per Example 3.
	qp := q.Clone().AndNot(p)
	want := map[string]bool{"A2": true, "B2": true, "C1": true, "D2": true, "D3": true}
	if qp.Count() != len(want) {
		t.Fatalf("|Q-P| = %d, want %d", qp.Count(), len(want))
	}
	for _, i := range qp.Indices() {
		if !want[paperdata.Names[i]] {
			t.Fatalf("unexpected member %s of Q-P", paperdata.Names[i])
		}
	}
}

// TestFig8MaxBitScore checks |Q| for every object against the MaxBitScore
// row of Fig. 8.
func TestFig8MaxBitScore(t *testing.T) {
	ix := buildSample(t, bitmapidx.Options{})
	cur := ix.NewCursor()
	for i, name := range paperdata.Names {
		if got, want := cur.MaxBitScore(i), paperdata.MaxBitScore[name]; got != want {
			t.Errorf("MaxBitScore(%s) = %d, want %d", name, got, want)
		}
	}
}

// TestB3QVector checks the worked example of §4.3: Q3 of B3 corresponds to
// bit-vector 00011001011111111111 and ∩Qi − {B3} is empty.
func TestB3QVector(t *testing.T) {
	ix := buildSample(t, bitmapidx.Options{})
	b3 := paperdata.Index("B3")
	q, _ := ix.NewCursor().QP(b3)
	if q.Any() {
		t.Fatalf("Q(B3) = %s, want empty (MaxBitScore(B3)=0)", q.String())
	}
}

// TestPaperBinBoundaries checks the §4.4 walk-through: dimension 1 with
// ξ=2 puts value 2 alone in the first bin (b11 = 1).
func TestPaperBinBoundaries(t *testing.T) {
	ds := paperdata.Sample()
	st := ds.Stats()
	bins := bitmapidx.AssignBins(&st[0], 2)
	want := []int{0, 1, 1, 1} // values 2 | 3 4 5
	for r, b := range want {
		if bins[r] != b {
			t.Fatalf("AssignBins(dim1, 2) = %v, want %v", bins, want)
		}
	}
}

// TestFig9BinnedEncoding checks that under ξ=(2,2,3,3) object D4's
// dimension-1 sub-string becomes 110 (miss-bit 1, bin0-bit 1, bin1-bit 0),
// i.e. bucket(D4, dim1) = 1 out of 2 bins.
func TestFig9BinnedEncoding(t *testing.T) {
	ix := buildSample(t, bitmapidx.Options{Bins: []int{2, 2, 3, 3}})
	if !ix.Binned() {
		t.Fatal("index not binned")
	}
	d4 := paperdata.Index("D4")
	if got := ix.Bucket(d4, 0); got != 1 {
		t.Fatalf("bucket(D4, dim1) = %d, want 1", got)
	}
	if got := ix.Bucket(paperdata.Index("C1"), 0); got != 0 {
		t.Fatalf("bucket(C1, dim1) = %d, want 0", got)
	}
	if got := ix.Bucket(paperdata.Index("A1"), 0); got != -1 {
		t.Fatalf("bucket(A1, dim1) = %d, want -1", got)
	}
}

// TestBinnedSmallerThanUnbinned: the whole point of §4.4.
func TestBinnedSmallerThanUnbinned(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 2000, Dim: 5, Cardinality: 200, MissingRate: 0.1, Dist: gen.IND, Seed: 31})
	full := bitmapidx.Build(ds, bitmapidx.Options{})
	binned := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{16}})
	if binned.SizeBytes() >= full.SizeBytes() {
		t.Fatalf("binned %dB >= unbinned %dB", binned.SizeBytes(), full.SizeBytes())
	}
	// Column counts: unbinned has Σ(Ci+1), binned Σ(ξ+1).
	if binned.Columns() >= full.Columns() {
		t.Fatalf("binned columns %d >= unbinned %d", binned.Columns(), full.Columns())
	}
}

// TestBinnedQSupersetOfUnbinned: bin-granular Qi can only widen Q.
func TestBinnedQSupersetOfUnbinned(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 500, Dim: 4, Cardinality: 50, MissingRate: 0.2, Dist: gen.AC, Seed: 32})
	full := bitmapidx.Build(ds, bitmapidx.Options{})
	binned := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{8}})
	fc, bc := full.NewCursor(), binned.NewCursor()
	for i := 0; i < ds.Len(); i++ {
		qf, _ := fc.QP(i)
		qb, _ := bc.QP(i)
		// every bit of qf must be in qb
		if qf.Clone().AndNot(qb).Any() {
			t.Fatalf("object %d: unbinned Q not a subset of binned Q", i)
		}
	}
}

// TestCodecsAgree: a value-granular index loaded from a file whose columns
// an earlier build stored in CONCISE produces bit-for-bit the Q/P vectors of
// the dense build it was written from.
func TestCodecsAgree(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 700, Dim: 4, Cardinality: 40, MissingRate: 0.15, Dist: gen.IND, Seed: 33})
	raw := bitmapidx.Build(ds, bitmapidx.Options{})
	cc, err := bitmapidx.Load(bytes.NewReader(raw.SaveLegacy(t, false)), ds)
	if err != nil {
		t.Fatal(err)
	}
	rc, ccur := raw.NewCursor(), cc.NewCursor()
	for i := 0; i < ds.Len(); i += 13 {
		qr, pr := rc.QP(i)
		qc, pc := ccur.QP(i)
		if !qr.Equal(qc) || !pr.Equal(pc) {
			t.Fatalf("CONCISE-loaded index disagrees at object %d", i)
		}
	}
}

// TestQPAgainstBruteForce verifies Definition 4 directly on random data.
func TestQPAgainstBruteForce(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 300, Dim: 3, Cardinality: 10, MissingRate: 0.25, Dist: gen.IND, Seed: 34})
	ix := bitmapidx.Build(ds, bitmapidx.Options{})
	cur := ix.NewCursor()
	for o := 0; o < ds.Len(); o++ {
		q, p := cur.QP(o)
		oo := ds.Obj(o)
		for pi := 0; pi < ds.Len(); pi++ {
			po := ds.Obj(pi)
			inQ, inP := pi != o, true
			for d := 0; d < ds.Dim(); d++ {
				if !oo.Observed(d) {
					continue // Qi = Pi = S
				}
				if !po.Observed(d) {
					continue // missing is in both
				}
				if po.Values[d] < oo.Values[d] {
					inQ = false
				}
				if po.Values[d] <= oo.Values[d] {
					inP = false
				}
			}
			if q.Get(pi) != inQ {
				t.Fatalf("Q(%d) bit %d = %v, want %v", o, pi, q.Get(pi), inQ)
			}
			if p.Get(pi) != inP {
				t.Fatalf("P(%d) bit %d = %v, want %v", o, pi, p.Get(pi), inP)
			}
		}
	}
}

func TestAssignBinsEdgeCases(t *testing.T) {
	st := data.DimStats{
		Distinct:      []float64{1, 2, 3},
		CountPerValue: []int{5, 5, 5},
	}
	// More bins than values: one value per bin.
	bins := bitmapidx.AssignBins(&st, 10)
	if bins[0] != 0 || bins[1] != 1 || bins[2] != 2 {
		t.Fatalf("bins = %v", bins)
	}
	// One bin: everything together.
	bins = bitmapidx.AssignBins(&st, 1)
	if bins[0] != 0 || bins[2] != 0 {
		t.Fatalf("bins = %v", bins)
	}
	// Zero/negative clamps to one bin.
	bins = bitmapidx.AssignBins(&st, 0)
	if bins[2] != 0 {
		t.Fatalf("bins = %v", bins)
	}
}

func TestAssignBinsMonotoneDense(t *testing.T) {
	st := data.DimStats{
		Distinct:      []float64{1, 2, 3, 4, 5, 6, 7, 8},
		CountPerValue: []int{1, 30, 1, 1, 1, 1, 1, 30},
	}
	bins := bitmapidx.AssignBins(&st, 4)
	// Monotone non-decreasing, dense bin ids starting at 0.
	prev := 0
	for _, b := range bins {
		if b < prev || b > prev+1 {
			t.Fatalf("bins not monotone-dense: %v", bins)
		}
		prev = b
	}
	if bins[0] != 0 {
		t.Fatalf("first bin not 0: %v", bins)
	}
	if bins[len(bins)-1] != 3 {
		t.Fatalf("did not use all 4 bins: %v", bins)
	}
}

func TestBroadcastBins(t *testing.T) {
	ds := paperdata.Sample()
	a := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{2}})
	b := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{2, 2, 2, 2}})
	if a.Columns() != b.Columns() {
		t.Fatalf("broadcast mismatch: %d vs %d columns", a.Columns(), b.Columns())
	}
}

// TestCompressedIndexSmallerOnRunHeavyData: in row order the runs of a
// range-encoded column are random, so CONCISE's gains come mostly from the
// extreme columns; on tiny-domain data the CONCISE copy of an index's
// columns (what Fig. 10 measures through ForEachColumn) never exceeds the
// dense payload by more than the word-size overhead factor.
func TestCompressedIndexSmallerOnRunHeavyData(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 5000, Dim: 4, Cardinality: 3, MissingRate: 0.05, Dist: gen.IND, Seed: 35})
	raw := bitmapidx.Build(ds, bitmapidx.Options{})
	cc := 0
	raw.ForEachColumn(func(v *bitvec.Vector) { cc += concise.Compress(v).SizeBytes() })
	if cc > 2*raw.SizeBytes() {
		t.Fatalf("CONCISE %dB vs raw %dB", cc, raw.SizeBytes())
	}
}

func BenchmarkBuildRaw(b *testing.B) {
	ds := gen.Synthetic(gen.Config{N: 10000, Dim: 10, Cardinality: 200, MissingRate: 0.1, Dist: gen.IND, Seed: 36})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitmapidx.Build(ds, bitmapidx.Options{})
	}
}

func BenchmarkQPRaw(b *testing.B) {
	b.ReportAllocs()
	ds := gen.Synthetic(gen.Config{N: 10000, Dim: 10, Cardinality: 200, MissingRate: 0.1, Dist: gen.IND, Seed: 37})
	ix := bitmapidx.Build(ds, bitmapidx.Options{})
	cur := ix.NewCursor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.QP(i % ds.Len())
	}
}
