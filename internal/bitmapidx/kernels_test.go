package bitmapidx_test

import (
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/gen"
)

// TestEmptyBinsFallsBackToDefault pins the fixed behaviour of a non-nil,
// empty Bins slice: the index must come up binned with the Eq. (8) bin
// count instead of panicking in the per-dimension bin lookup.
func TestEmptyBinsFallsBackToDefault(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 300, Dim: 4, Cardinality: 30, MissingRate: 0.2, Dist: gen.IND, Seed: 5})
	empty := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{}})
	if !empty.Binned() {
		t.Fatal("empty Bins slice should still request a binned index")
	}
	def := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{bitmapidx.OptimalBins(ds.Len(), ds.MissingRate())}})
	if got, want := empty.Columns(), def.Columns(); got != want {
		t.Fatalf("empty-bins index has %d columns, Eq. (8) default has %d", got, want)
	}
}

// TestAdaptiveMatchesRaw pins the tentpole invariant: an adaptive index —
// columns stored dense, compressed or sparse by density, intersections
// dispatched to run-native kernels — answers QP and the Heuristic 2 bounds
// bit-identically to the Raw dense reference, binned and unbinned.
func TestAdaptiveMatchesRaw(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 900, Dim: 5, Cardinality: 40, MissingRate: 0.25, Dist: gen.IND, Seed: 12})
	sorted := ds.SortDims()
	raw := bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: bitmapidx.Raw})
	for _, opts := range []bitmapidx.Options{
		{Codec: bitmapidx.Concise, Adaptive: true},
		{Codec: bitmapidx.Concise, Bins: []int{6}, Adaptive: true},
		{Codec: bitmapidx.Concise, Bins: []int{16}, Adaptive: true},
	} {
		ix := bitmapidx.BuildSorted(sorted, opts)
		if !ix.Adaptive() {
			t.Fatalf("%v: index not adaptive", opts)
		}
		rawRef := raw
		if opts.Bins != nil {
			rawRef = bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: bitmapidx.Raw, Bins: opts.Bins})
		}
		cur, ref := ix.NewCursor(), rawRef.NewCursor()
		for o := 0; o < ds.Len(); o += 3 {
			q, p := cur.QP(o)
			wantQ, wantP := ref.QP(o)
			if !q.Equal(wantQ) || !p.Equal(wantP) {
				t.Fatalf("%v object %d: Q/P diverge from Raw", opts, o)
			}
			mb, wantMb := cur.MaxBitScore(o), ref.MaxBitScore(o)
			if mb != wantMb {
				t.Fatalf("%v object %d: MaxBitScore %d, Raw %d", opts, o, mb, wantMb)
			}
			for _, tau := range []int{-1, 0, mb - 1, mb, mb + 1} {
				got, above := cur.MaxBitScoreAbove(o, tau)
				wantGot, wantAbove := ref.MaxBitScoreAbove(o, tau)
				if got != wantGot || above != wantAbove {
					t.Fatalf("%v object %d tau %d: (%d,%v), Raw (%d,%v)", opts, o, tau, got, above, wantGot, wantAbove)
				}
			}
		}
		st := ix.CacheStats()
		if st.DenseCols+st.CompressedCols+st.SparseCols == 0 {
			t.Fatalf("%v: no columns counted as served", opts)
		}
		if st.CompressedCols != st.NativeKernel+st.Fallback {
			t.Fatalf("%v: compressed %d != native %d + fallback %d", opts, st.CompressedCols, st.NativeKernel, st.Fallback)
		}
	}
}

// TestAdaptivePicksMixedRepresentations checks that a realistic binned
// index actually exercises more than one representation — otherwise the
// dispatch paths above would be vacuous.
func TestAdaptivePicksMixedRepresentations(t *testing.T) {
	// Missing values encode as all-ones across the dimension, so a column's
	// density is at least the missing rate — sparse columns (top buckets)
	// only appear when few values are missing.
	ds := gen.Synthetic(gen.Config{N: 2000, Dim: 4, Cardinality: 100, MissingRate: 0.01, Dist: gen.IND, Seed: 3})
	ix := bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{32}, Adaptive: true})
	cur := ix.NewCursor()
	for o := 0; o < ds.Len(); o += 5 {
		cur.QP(o)
		cur.MaxBitScoreAbove(o, ds.Len()/3)
	}
	st := ix.CacheStats()
	if st.DenseCols == 0 || st.SparseCols == 0 {
		t.Fatalf("expected dense and sparse traffic, got dense=%d compressed=%d sparse=%d",
			st.DenseCols, st.CompressedCols, st.SparseCols)
	}
}

// TestMaxBitScoreAbove checks the threshold-aware bound against the plain
// one across every object and a sweep of thresholds, on both a raw and a
// compressed binned index.
func TestMaxBitScoreAbove(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 400, Dim: 5, Cardinality: 25, MissingRate: 0.3, Dist: gen.AC, Seed: 6})
	sorted := ds.SortDims()
	for _, opts := range []bitmapidx.Options{
		{Codec: bitmapidx.Raw},
		{Codec: bitmapidx.Concise, Bins: []int{8}},
		{Codec: bitmapidx.Concise, Bins: []int{8}, Adaptive: true},
		{Codec: bitmapidx.Concise, Adaptive: true},
	} {
		ix := bitmapidx.BuildSorted(sorted, opts)
		c := ix.NewCursor()
		for o := 0; o < ds.Len(); o += 7 {
			exact := c.MaxBitScore(o)
			for _, tau := range []int{-1, 0, exact - 1, exact, exact + 1, ds.Len()} {
				got, above := c.MaxBitScoreAbove(o, tau)
				if wantAbove := exact > tau; above != wantAbove {
					t.Fatalf("%v obj=%d tau=%d: above=%v, want %v", opts.Codec, o, tau, above, wantAbove)
				}
				if above && got != exact {
					t.Fatalf("%v obj=%d tau=%d: bound=%d, want %d", opts.Codec, o, tau, got, exact)
				}
			}
		}
	}
}
