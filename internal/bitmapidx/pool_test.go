package bitmapidx

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
)

// probe runs every scoring entry of c over each row of its index — Q/P, the
// Heuristic 2 bound plain and threshold-aware, |F|, the exact score with and
// without a Heuristic 3 limit, and the foreign count and score of the next
// row's values — and returns what they answered, flat.
func probe(c *Cursor) []uint64 {
	ds := c.Index().Dataset()
	var out []uint64
	put := func(vs ...int) {
		for _, v := range vs {
			out = append(out, uint64(v))
		}
	}
	for o := 0; o < ds.Len(); o++ {
		q, p := c.QP(o)
		out = append(out, q.Words()...)
		out = append(out, p.Words()...)
		mb := c.MaxBitScore(o)
		above, ok := c.MaxBitScoreAbove(o, mb/2)
		f := c.IncomparableRows(ds.Obj(o).Mask)
		score, walked, exact := c.Score(o, -1, NoLimit)
		cut, cutWalked, cutExact := c.Score(o, -1, 1)
		fo := ds.Obj((o + 1) % ds.Len())
		fcnt, fok := c.ForeignCountAbove(fo.Values, fo.Mask, noTau)
		fscore, fwalked, fexact := c.ScoreForeign(fo.Values, fo.Mask, -1, NoLimit)
		put(mb, above, b2i(ok), f, score, walked, b2i(exact), cut, cutWalked, b2i(cutExact),
			fcnt, b2i(fok), fscore, fwalked, b2i(fexact))
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestReleasedCursorMatchesFresh: a cursor that scored every row of its
// index, was released and was drawn again answers every scoring entry as a
// fresh cursor does — over two indexes of different N, each drawing from its
// own pool, and over an index AppendRows patched from a predecessor whose
// cursors stay with the predecessor. Drawing a released cursor allocates
// nothing (outside the race detector, under which a pool drops some of what
// it is given).
func TestReleasedCursorMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	build := func(n int) *Index {
		ds := data.New(4)
		for i, vals := range randIncomplete(rng, n, 4, 9, 0.3) {
			ds.MustAppend(fmt.Sprintf("o%d", i), vals)
		}
		return Build(ds, Options{Codec: Concise, Bins: []int{4}, Adaptive: true})
	}
	base, next := deltaFixture(7)
	old := Build(base, Options{Codec: Concise, Bins: []int{4}, Adaptive: true})
	patched, ok := AppendRows(old, next)
	if !ok {
		t.Fatal("AppendRows fell back")
	}
	indexes := []struct {
		name string
		ix   *Index
	}{{"N=200", build(200)}, {"N=700", build(700)}, {"predecessor", old}, {"patched", patched}}
	for _, tc := range indexes {
		c := tc.ix.NewCursor()
		probe(c)
		c.Release()
	}
	for _, tc := range indexes {
		drawn := tc.ix.NewCursor()
		if drawn.Index() != tc.ix {
			t.Fatalf("%s: drew a cursor over another index", tc.name)
		}
		if got, want := probe(drawn), probe(tc.ix.newCursor()); !slices.Equal(got, want) {
			t.Errorf("%s: a released and redrawn cursor answers unlike a fresh one", tc.name)
		}
		drawn.Release()
	}
	if raceEnabled {
		return
	}
	ix := indexes[1].ix
	if n := testing.AllocsPerRun(100, func() { ix.NewCursor().Release() }); n != 0 {
		t.Errorf("drawing a released cursor allocates %v objects", n)
	}
}
