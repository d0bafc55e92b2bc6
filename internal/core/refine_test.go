package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/paperdata"
	"repro/internal/reference"
)

// TestIBIGBTreeMatchesDirect: IBIG's two scorers — the bitwise kernel and
// §4.5's B+-tree refinement — run through the one serial loop agree on the
// answer, ties and all, and on Candidates, PrunedH1 and PrunedH2: Heuristic 2
// runs before either refinement, and a candidate one of them cuts by
// Heuristic 3 scores at most τ, so its missing offer moves neither τ nor the
// heap. Only the Scored / PrunedH3 split may differ. The inputs span the
// regimes, the MovieLens simulator (2,873 masks over 3,700 rows, five values,
// ties everywhere) and an index whose last rows were patched in by AppendRows.
func TestIBIGBTreeMatchesDirect(t *testing.T) {
	type input struct {
		name string
		ds   *data.Dataset
		tail int // rows AppendRows patches onto an index of the rest
	}
	var inputs []input
	for i, cfg := range []gen.Config{
		{N: 400, Dim: 4, Cardinality: 16, MissingRate: 0.25, Dist: gen.IND, Seed: 51},
		{N: 300, Dim: 5, Cardinality: 6, MissingRate: 0.5, Dist: gen.AC, Seed: 52},
		{N: 350, Dim: 3, Cardinality: 64, MissingRate: 0.1, Dist: gen.IND, Seed: 53},
		{N: 250, Dim: 4, Cardinality: 32, MissingRate: 0, Dist: gen.AC, Seed: 54},
	} {
		inputs = append(inputs, input{fmt.Sprintf("cfg%d", i), gen.Synthetic(cfg), 0})
	}
	// Every other one of the rows published onto the patched index is moved
	// half a step off the integer domain: values the base index never saw
	// join its buckets.
	src := gen.Synthetic(gen.Config{N: 400, Dim: 4, Cardinality: 24, MissingRate: 0.3, Dist: gen.IND, Seed: 55})
	patched := data.New(src.Dim())
	for i := 0; i < src.Len(); i++ {
		row := slices.Clone(src.Obj(i).Values)
		if i >= src.Len()-60 && i%2 == 1 {
			for d := range row {
				row[d] += 0.5
			}
		}
		patched.MustAppend(src.Obj(i).ID, row)
	}
	inputs = append(inputs, input{"movielens", gen.MovieLens(1), 0}, input{"patched", patched, 60})

	for _, in := range inputs {
		ds := in.ds
		queue := core.BuildMaxScoreQueue(ds)
		trees := reference.BuildDimTrees(ds)
		for _, bins := range []int{2, 5, 16} {
			opts := bitmapidx.Options{Bins: []int{bins}}
			ix := bitmapidx.Build(ds, opts)
			if in.tail > 0 {
				var ok bool
				if ix, ok = bitmapidx.AppendRows(bitmapidx.Build(ds.Slice(0, ds.Len()-in.tail), opts), ds); !ok {
					t.Fatalf("%s bins=%d: AppendRows refused the tail", in.name, bins)
				}
			}
			for _, k := range []int{1, 8, 32} {
				direct, dst := core.IBIG(ds, k, ix, queue)
				viaTree, tst := reference.IBIGBTree(ds, k, ix, queue, trees)
				if !reflect.DeepEqual(direct.Items, viaTree.Items) {
					t.Fatalf("%s bins=%d k=%d: B+-tree answer %v, kernel %v", in.name, bins, k, viaTree.Items, direct.Items)
				}
				d := [3]int{dst.Candidates, dst.PrunedH1, dst.PrunedH2}
				b := [3]int{tst.Candidates, tst.PrunedH1, tst.PrunedH2}
				if d != b {
					t.Fatalf("%s bins=%d k=%d: candidates/H1/H2 %v through the B+-tree, %v through the kernel", in.name, bins, k, b, d)
				}
			}
		}
	}
}

// TestIBIGBTreeOnPaperSample replays the golden T2D answer through the
// B+-tree refinement with the Fig. 9 bin layout.
func TestIBIGBTreeOnPaperSample(t *testing.T) {
	ds := paperdata.Sample()
	ix := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{2, 2, 3, 3}})
	res, _ := reference.IBIGBTree(ds, 2, ix, nil, nil) // build queue and trees on the fly
	for _, it := range res.Items {
		if it.Score != paperdata.T2DAnswerScore {
			t.Fatalf("score(%s) = %d, want %d", it.ID, it.Score, paperdata.T2DAnswerScore)
		}
	}
	ids := map[string]bool{res.Items[0].ID: true, res.Items[1].ID: true}
	if !ids["C2"] || !ids["A2"] {
		t.Fatalf("answer %v, want {C2, A2}", res.IDs())
	}
}

// TestIBIGBTreeReportsHeuristics: the B+-tree flavour still exercises
// Heuristics 1–3 and its counters stay consistent.
func TestIBIGBTreeReportsHeuristics(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 800, Dim: 4, Cardinality: 16, MissingRate: 0.3, Dist: gen.IND, Seed: 55})
	ix := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{4}})
	_, st := reference.IBIGBTree(ds, 10, ix, nil, nil)
	if st.Candidates+st.PrunedH1 != ds.Len() {
		t.Fatalf("candidates %d + H1 %d != N %d", st.Candidates, st.PrunedH1, ds.Len())
	}
	if st.Scored+st.PrunedH2+st.PrunedH3 != st.Candidates {
		t.Fatalf("scored %d + H2 %d + H3 %d != candidates %d",
			st.Scored, st.PrunedH2, st.PrunedH3, st.Candidates)
	}
}
