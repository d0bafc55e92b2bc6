package bitmapidx_test

import (
	"bytes"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
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
// columns stored compressed when fill-dominated and dense otherwise,
// intersections dispatched to the matching kernels — answers QP and the
// Heuristic 2 bounds bit-identically to the Raw dense reference, binned and
// unbinned.
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
		if st.DenseCols+st.CompressedCols == 0 {
			t.Fatalf("%v: no columns counted as served", opts)
		}
		if st.CompressedCols != st.NativeKernel+st.Fallback {
			t.Fatalf("%v: compressed %d != native %d + fallback %d", opts, st.CompressedCols, st.NativeKernel, st.Fallback)
		}
	}
}

// TestServingIndexKinds is the census behind the two-kind rule and the bin
// rule (DESIGN.md §1): on the four benchmark shapes, the paper's default
// settings, low missing rates and the three simulators, every column of the
// serving index is dense or fill-dominated CONCISE — each is read by a kernel
// over the form it is stored in — and the saved index, built under
// ξᵢ = min(cᵢ, 2 · Eq. (8)), is at most twice what it was under Eq. (8)
// (eq8Bytes, recorded at PR 25), the query-heavy one pinned to the byte. A
// shard's slice is laid out under its dataset's rule and held to its dataset's
// bytes per row: a third of the rows, a third of the budget.
func TestServingIndexKinds(t *testing.T) {
	syn := func(n, dim, card int, sigma float64, dist gen.Distribution) *data.Dataset {
		return gen.Synthetic(gen.Config{N: n, Dim: dim, Cardinality: card, MissingRate: sigma, Dist: dist, Seed: 1})
	}
	heavy := syn(100_000, 5, 100, 0.2, gen.IND)
	for _, tc := range []struct {
		name      string
		ds        *data.Dataset
		eq8Bytes  int
		wantBytes int   // exact, when non-zero
		bins      []int // nil: the dataset's own rule
	}{
		{"query-heavy, ingest (100k x 5, c 100, sigma 0.2)", heavy, 2_443_858, 4_856_957, nil},
		{"query-sharded slice (33,333 rows of it)", heavy.Slice(0, 33_333), 2_443_858 / 3, 0, []int{bitmapidx.ServingBins(heavy.Len(), heavy.MissingRate())}},
		{"query-light (2000 x 4, c 40, sigma 0.2)", syn(2000, 4, 40, 0.2, gen.IND), 8_506, 0, nil},
		{"paper default IND (100k x 10, c 200, sigma 0.1)", syn(100_000, 10, 200, 0.1, gen.IND), 3_639_558, 0, nil},
		{"paper default AC", syn(100_000, 10, 200, 0.1, gen.AC), 3_514_348, 0, nil},
		{"sigma 0.02 (100k x 5, c 100)", syn(100_000, 5, 100, 0.02, gen.IND), 878_733, 0, nil},
		{"sigma 0.05", syn(100_000, 5, 100, 0.05, gen.IND), 1_316_968, 0, nil},
		{"NBA", gen.NBA(1), 196_934, 0, nil},
		{"MovieLens", gen.MovieLens(1), 140_801, 0, nil},
		{"Zillow-50k", gen.Zillow(1, 50_000), 802_742, 0, nil},
	} {
		ix := core.BuildServingIndex(tc.ds.SortDims(), tc.bins)
		dense, compressed := ix.Representations()
		if lh := ix.LiteralHeavy(); lh != 0 || dense+compressed != ix.Columns() || compressed < tc.ds.Dim() {
			t.Errorf("%s: %d dense + %d compressed of %d columns, %d of them literal-heavy; want every column dense or fill-dominated, the all-ones ones compressed",
				tc.name, dense, compressed, ix.Columns(), lh)
		}
		var out bytes.Buffer
		if err := ix.Save(&out); err != nil {
			t.Fatal(err)
		}
		if out.Len() > 2*tc.eq8Bytes || (tc.wantBytes != 0 && out.Len() != tc.wantBytes) {
			t.Errorf("%s: saved index is %d B, limit %d B (exact %d)", tc.name, out.Len(), 2*tc.eq8Bytes, tc.wantBytes)
		}
		t.Logf("%-50s %3d columns: %3d dense, %2d fill-dominated; saved %9d B (under Eq. (8) %9d B)", tc.name, ix.Columns(), dense, compressed, out.Len(), tc.eq8Bytes)
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
