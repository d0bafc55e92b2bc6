package bitmapidx

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/gen"
)

// bruteScore is the dominance score of obj (objects obj dominates).
func bruteScore(ds *data.Dataset, obj int) int {
	p := ds.Obj(obj)
	count := 0
	for q := 0; q < ds.Len(); q++ {
		if q != obj && p.Dominates(ds.Obj(q)) {
			count++
		}
	}
	return count
}

// TestHeuristic2NetOfIncomparable is the property Heuristic 2 rests on since
// it prunes on |∩Qᵢ| − 1 − |F(o)|: for every row of an incomplete dataset that
// bound is no lower than the row's score, with |F(o)| the same number whether
// it is read off the per-mask row counts, off the missing columns, or through
// IncomparableRows, which picks one — and equal to a scan of the rows. The
// shapes are the ones that decide the pick or empty F: complete rows (F = ∅),
// σ 0.6 over five dimensions (a few masks over many rows: the mask counts),
// rows observed on one dimension each (F is everything observed elsewhere),
// the MovieLens simulator (2,873 masks over 3,700 rows: the columns) and an
// index patched by AppendRows.
func TestHeuristic2NetOfIncomparable(t *testing.T) {
	synth := func(n, dim, grid int, sigma float64) *data.Dataset {
		ds := data.New(dim)
		for i, vals := range randIncomplete(rand.New(rand.NewSource(int64(n+dim))), n, dim, grid, sigma) {
			ds.MustAppend(fmt.Sprintf("o%d", i), vals)
		}
		return ds
	}
	oneDim := data.New(6)
	for i := 0; i < 300; i++ {
		row := make([]float64, 6)
		for d := range row {
			row[d] = data.Missing()
		}
		row[i%5] = float64(i % 7) // dimension 5 is observed by no row
		oneDim.MustAppend(fmt.Sprintf("o%d", i), row)
	}
	base, next := deltaFixture(3)
	opts := Options{Codec: Concise, Bins: []int{4}, Adaptive: true}
	patched, ok := AppendRows(Build(base, opts), next)
	if !ok {
		t.Fatal("AppendRows refused a strict row extension")
	}
	movielens := gen.MovieLens(1)
	for _, tc := range []struct {
		name   string
		ix     *Index
		taken  string // the evaluation IncomparableRows must take on every row, if the shape decides it
		stride int
	}{
		{"complete rows", Build(synth(200, 4, 9, 0), opts), "", 1},
		{"sigma 0.6 x 5", Build(synth(2000, 5, 9, 0.6), opts), "mask counts", 7},
		{"one dimension a row", Build(oneDim, opts), "", 1},
		{"MovieLens", Build(movielens, Options{Codec: Concise, Bins: []int{ServingBins(movielens.Len(), movielens.MissingRate())}, Adaptive: true}), "columns", 37},
		{"patched", patched, "", 1},
		{"value-granular", Build(synth(300, 4, 9, 0.35), Options{}), "", 1},
	} {
		ds := tc.ix.Dataset()
		c := tc.ix.NewCursor()
		words := (ds.Len() + 63) / 64
		withF := 0
		for o := 0; o < ds.Len(); o += tc.stride {
			mask := ds.Obj(o).Mask
			scan := 0
			for p := 0; p < ds.Len(); p++ {
				if ds.Obj(p).Mask&mask == 0 {
					scan++
				}
			}
			byMask, byCols, f := tc.ix.disjointMaskRows(mask), c.missingEverywhere(mask), c.IncomparableRows(mask)
			if byMask != scan || byCols != scan || f != scan {
				t.Fatalf("%s row %d: |F| = %d by mask counts, %d by columns, %d served; a scan says %d", tc.name, o, byMask, byCols, f, scan)
			}
			taken := "mask counts"
			if bits.OnesCount64(mask)*words < len(tc.ix.masks) {
				taken = "columns"
			}
			if tc.taken != "" && taken != tc.taken {
				t.Fatalf("%s row %d: %d masks, %d observed dimensions x %d words: read off the %s, want the %s",
					tc.name, o, len(tc.ix.masks), bits.OnesCount64(mask), words, taken, tc.taken)
			}
			if bound, score := c.MaxBitScore(o)-f, bruteScore(ds, o); bound < score {
				t.Fatalf("%s row %d: |∩Q| − 1 − |F| = %d below its score %d", tc.name, o, bound, score)
			}
			if f > 0 {
				withF++
			}
		}
		if complete := tc.name == "complete rows"; complete != (withF == 0) {
			t.Errorf("%s: %d rows have a non-empty F", tc.name, withF)
		}
	}
}
