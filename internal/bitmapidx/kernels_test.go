package bitmapidx_test

import (
	"bytes"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/bitvec"
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

// TestAdaptiveMatchesRaw: an index loaded from an adaptive file an earlier
// build wrote — fill-dominated columns CONCISE, the rest dense — decompresses
// at load and answers QP and the Heuristic 2 bounds bit-identically to a build
// over the same rows, binned and unbinned.
func TestAdaptiveMatchesRaw(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 900, Dim: 5, Cardinality: 40, MissingRate: 0.25, Dist: gen.IND, Seed: 12})
	sorted := ds.SortDims()
	for _, opts := range []bitmapidx.Options{{}, {Bins: []int{6}}, {Bins: []int{16}}} {
		ref := bitmapidx.BuildSorted(sorted, opts)
		ix, err := bitmapidx.Load(bytes.NewReader(ref.SaveLegacy(t, true)), ds)
		if err != nil {
			t.Fatal(err)
		}
		cur, rc := ix.NewCursor(), ref.NewCursor()
		for o := 0; o < ds.Len(); o += 3 {
			q, p := cur.QP(o)
			wantQ, wantP := rc.QP(o)
			if !q.Equal(wantQ) || !p.Equal(wantP) {
				t.Fatalf("%v object %d: Q/P diverge from the build", opts, o)
			}
			mb, wantMb := cur.MaxBitScore(o), rc.MaxBitScore(o)
			if mb != wantMb {
				t.Fatalf("%v object %d: MaxBitScore %d, build %d", opts, o, mb, wantMb)
			}
			for _, tau := range []int{-1, 0, mb - 1, mb, mb + 1} {
				got, above := cur.MaxBitScoreAbove(o, tau)
				wantGot, wantAbove := rc.MaxBitScoreAbove(o, tau)
				if got != wantGot || above != wantAbove {
					t.Fatalf("%v object %d tau %d: (%d,%v), build (%d,%v)", opts, o, tau, got, above, wantGot, wantAbove)
				}
			}
		}
	}
}

// TestServingIndexKinds is the census behind the one column kind and the bin
// rule (DESIGN.md §1): on the four benchmark shapes, the paper's default
// settings, low missing rates and the three simulators, every column of the
// serving index is dense — its payload is columns × ⌈N/64⌉ words, the all-dense
// bytes of DESIGN.md §1's census — and the saved index, built under
// ξᵢ = min(cᵢ, 2 · Eq. (8)), is at most twice what it is under Eq. (8)
// (eq8Bytes, the dense saves recorded when the serving index went dense), the
// query-heavy one pinned to the byte. A shard's slice is laid out under its
// dataset's rule and held to its dataset's bytes per row: a third of the
// rows, a third of the budget. Within one kernel block of rows (query-light)
// the rule is ValueGranularBins, not 2 · Eq. (8), and the index is held to
// what the value-granular index of the same rows saves: the same bytes
// wherever no dimension has more values than that.
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
		{"query-heavy, ingest (100k x 5, c 100, sigma 0.2)", heavy, 2_506_338, 4_947_933, nil},
		{"query-sharded slice (33,333 rows of it)", heavy.Slice(0, 33_333), 2_506_338 / 3, 0, []int{bitmapidx.ServingBins(heavy.Len(), heavy.MissingRate())}},
		{"query-light (2000 x 4, c 40, sigma 0.2)", syn(2000, 4, 40, 0.2, gen.IND), 9_498, 0, nil},
		{"paper default IND (100k x 10, c 200, sigma 0.1)", syn(100_000, 10, 200, 0.1, gen.IND), 3_764_518, 0, nil},
		{"paper default AC", syn(100_000, 10, 200, 0.1, gen.AC), 3_639_308, 0, nil},
		{"sigma 0.02 (100k x 5, c 100)", syn(100_000, 5, 100, 0.02, gen.IND), 941_213, 0, nil},
		{"sigma 0.05", syn(100_000, 5, 100, 0.05, gen.IND), 1_379_448, 0, nil},
		{"NBA", gen.NBA(1), 204_902, 0, nil},
		{"MovieLens", gen.MovieLens(1), 174_893, 0, nil},
		{"Zillow-50k", gen.Zillow(1, 50_000), 833_982, 0, nil},
	} {
		sorted := tc.ds.SortDims()
		ix := core.BuildServingIndex(sorted, tc.bins)
		if dense := ix.Columns() * 8 * ((tc.ds.Len() + 63) / 64); ix.SizeBytes() != dense {
			t.Errorf("%s: %d columns hold %d B, want %d B, every column dense", tc.name, ix.Columns(), ix.SizeBytes(), dense)
		}
		var out bytes.Buffer
		if err := ix.Save(&out); err != nil {
			t.Fatal(err)
		}
		limit := 2 * tc.eq8Bytes
		if tc.ds.Len() <= bitvec.BlockBits {
			var vg bytes.Buffer
			if err := bitmapidx.BuildSorted(sorted, bitmapidx.Options{}).Save(&vg); err != nil {
				t.Fatal(err)
			}
			limit = vg.Len()
		}
		if out.Len() > limit || (tc.wantBytes != 0 && out.Len() != tc.wantBytes) {
			t.Errorf("%s: saved index is %d B, limit %d B (exact %d)", tc.name, out.Len(), limit, tc.wantBytes)
		}
		t.Logf("%-50s %3d columns, %9d B of them; saved %9d B (under Eq. (8) %9d B)", tc.name, ix.Columns(), ix.SizeBytes(), out.Len(), tc.eq8Bytes)
	}
}

// TestMaxBitScoreAbove checks the threshold-aware bound against the plain
// one across every object and a sweep of thresholds, on a value-granular
// and a binned index.
func TestMaxBitScoreAbove(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 400, Dim: 5, Cardinality: 25, MissingRate: 0.3, Dist: gen.AC, Seed: 6})
	sorted := ds.SortDims()
	for _, opts := range []bitmapidx.Options{{}, {Bins: []int{8}}} {
		ix := bitmapidx.BuildSorted(sorted, opts)
		c := ix.NewCursor()
		for o := 0; o < ds.Len(); o += 7 {
			exact := c.MaxBitScore(o)
			for _, tau := range []int{-1, 0, exact - 1, exact, exact + 1, ds.Len()} {
				got, above := c.MaxBitScoreAbove(o, tau)
				if wantAbove := exact > tau; above != wantAbove {
					t.Fatalf("%v obj=%d tau=%d: above=%v, want %v", opts.Bins, o, tau, above, wantAbove)
				}
				if above && got != exact {
					t.Fatalf("%v obj=%d tau=%d: bound=%d, want %d", opts.Bins, o, tau, got, exact)
				}
			}
		}
	}
}
