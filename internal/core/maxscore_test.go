package core_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/reference"
)

// TestMaxScoreQueueFromIndexIdentical: the queue has one builder and two ways
// in — from the dataset, from an index — and both must reproduce the paper's
// B+-tree procedure byte for byte, same bounds, same stable order, since the
// cold build and the incremental publish path hand out the derived queue
// without re-verifying answers. Beside the generator regimes: ties and
// duplicate rows, a dimension missing everywhere, a single row, a negated
// dataset, and an index patched by AppendRows.
func TestMaxScoreQueueFromIndexIdentical(t *testing.T) {
	serving := bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{4}, Adaptive: true}
	check := func(label string, ds *data.Dataset, ix *bitmapidx.Index) {
		t.Helper()
		want := reference.BuildMaxScoreQueueBTree(ds)
		for name, got := range map[string]*core.MaxScoreQueue{
			"from dataset": core.BuildMaxScoreQueue(ds),
			"from index":   core.BuildMaxScoreQueueFromIndex(ix),
		} {
			if !reflect.DeepEqual(got.MaxScore, want.MaxScore) {
				t.Fatalf("%s, %s: MaxScore bounds diverge from the B+-tree reference", label, name)
			}
			if !reflect.DeepEqual(got.Order, want.Order) {
				t.Fatalf("%s, %s: queue order diverges from the B+-tree reference", label, name)
			}
		}
	}

	for _, cfg := range randomConfigs(4200) {
		ds := gen.Synthetic(cfg)
		check(fmt.Sprintf("cfg=%+v", cfg), ds, bitmapidx.Build(ds, serving))
	}

	m := data.Missing()
	ties := data.New(3)
	for i, row := range [][]float64{
		{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, // duplicate rows
		{1, 5, m}, {1, m, 3}, {m, 2, 3}, // ties on every observed value
		{0, 0, 0}, {7, 7, 7}, {7, m, m},
	} {
		ties.MustAppend(fmt.Sprintf("t%d", i), row)
	}
	check("ties and duplicates", ties, bitmapidx.Build(ties, serving))

	hole := data.New(3) // dimension 1 is missing everywhere
	for i, row := range [][]float64{{3, m, 1}, {1, m, m}, {m, m, 2}, {2, m, 2}, {3, m, 0}} {
		hole.MustAppend(fmt.Sprintf("h%d", i), row)
	}
	check("a dimension missing everywhere", hole, bitmapidx.Build(hole, serving))

	one := data.New(2)
	one.MustAppend("only", []float64{4, m})
	check("n = 1", one, bitmapidx.Build(one, serving))

	neg := gen.Synthetic(randomConfigs(4300)[1])
	neg.Negate()
	check("negated", neg, bitmapidx.Build(neg, serving))

	// A patched index: appended rows bring existing values, new values inside
	// and beyond the old domain, and missing cells.
	base := gen.Synthetic(randomConfigs(4400)[3])
	old := bitmapidx.Build(base, serving)
	next := base.Extend(4)
	for i, row := range [][]float64{{0, 0, 0, 0}, {50.5, m, 1e6, 3}, {m, m, m, -1}, {99, 99, 99, 99}} {
		next.MustAppend(fmt.Sprintf("a%d", i), row)
	}
	patched, ok := bitmapidx.AppendRows(old, next)
	if !ok {
		t.Fatal("AppendRows fell back on a patchable append")
	}
	check("after AppendRows", next, patched)
}

// TestMaxScoreQueueMergedFromRuns: a shard coordinator merges its queue from
// its shards' sorted runs instead of sorting the rows a second time, and the
// merge must give the B+-tree reference's bounds and order for any row
// partition — 1 to 7 slices over IND and AC data, each slice's run read off
// its sort and off an index built from that sort — and on the edges a merge
// of Distinct lists can get wrong.
func TestMaxScoreQueueMergedFromRuns(t *testing.T) {
	serving := bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{4}, Adaptive: true}
	check := func(label string, ds *data.Dataset, cuts []int) {
		t.Helper()
		want := reference.BuildMaxScoreQueueBTree(ds)
		var sorted, indexed []core.QueueRun
		for i := 0; i+1 < len(cuts); i++ {
			s := ds.Slice(cuts[i], cuts[i+1]).SortDims()
			run := core.QueueRun{Stats: s.Stats, Ranks: s.Ranks}
			sorted = append(sorted, run)
			if s.Dataset().Len() > 0 { // an empty slice has no index: its run is its sort
				ix := bitmapidx.BuildSorted(s, serving)
				run = core.QueueRun{Stats: ix.Stats(), Ranks: ix.Ranks()}
			}
			indexed = append(indexed, run)
		}
		for name, runs := range map[string][]core.QueueRun{"sorted runs": sorted, "index runs": indexed} {
			got := core.QueueFromRuns(runs)
			if !reflect.DeepEqual(got.MaxScore, want.MaxScore) {
				t.Fatalf("%s, cuts %v, %s: MaxScore bounds diverge from the B+-tree reference", label, cuts, name)
			}
			if !reflect.DeepEqual(got.Order, want.Order) {
				t.Fatalf("%s, cuts %v, %s: queue order diverges from the B+-tree reference", label, cuts, name)
			}
		}
	}
	even := func(n, k int) []int {
		cuts := make([]int, k+1)
		for i := range cuts {
			cuts[i] = i * n / k
		}
		return cuts
	}
	rows := func(dim int, vals ...[]float64) *data.Dataset {
		ds := data.New(dim)
		for i, v := range vals {
			ds.MustAppend(fmt.Sprintf("r%d", i), v)
		}
		return ds
	}

	m, negZero := data.Missing(), math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		ds   *data.Dataset
		cuts [][]int // beside the even splits into 1 to 7 slices
	}{
		{"IND", gen.Synthetic(gen.Config{N: 700, Dim: 4, Cardinality: 30, MissingRate: 0.25, Dist: gen.IND, Seed: 4500}), nil},
		{"IND, missing-heavy", gen.Synthetic(randomConfigs(4500)[2]), nil},
		{"AC", gen.Synthetic(gen.Config{N: 600, Dim: 3, Cardinality: 100, MissingRate: 0.3, Dist: gen.AC, Seed: 4501}), nil},
		{"AC, six dimensions", gen.Synthetic(randomConfigs(4500)[4]), nil},
		{"a value only one slice holds", rows(2,
			[]float64{1, 2}, []float64{2, 1}, []float64{1, m},
			[]float64{9, 2}, []float64{9, 0.5}, // 9 and 0.5 live in the middle slice alone
			[]float64{2, 2}, []float64{1, 1}, []float64{m, 2},
		), [][]int{{0, 3, 5, 8}}},
		{"duplicates across a boundary", rows(3,
			[]float64{4, 4, 4}, []float64{1, 2, 3}, []float64{1, 2, 3},
			[]float64{1, 2, 3}, []float64{1, 2, 3}, []float64{0, 5, m},
			[]float64{1, 2, 3}, []float64{7, m, 1},
		), [][]int{{0, 3, 8}, {0, 2, 4, 6, 8}}},
		{"a slice missing a dimension everywhere", rows(3,
			[]float64{3, m, 1}, []float64{1, m, m}, []float64{m, m, 2},
			[]float64{2, 5, 2}, []float64{3, 1, 0}, []float64{1, 5, m},
		), [][]int{{0, 3, 6}, {0, 1, 3, 6}}},
		{"one-row slices", rows(2,
			[]float64{5, 1}, []float64{3, m}, []float64{3, 3}, []float64{m, 1}, []float64{4, 4},
		), [][]int{{0, 1, 2, 3, 4, 5}, {0, 1, 4, 5}, {0, 4, 5}}},
		{"−0 and +0", rows(2,
			[]float64{negZero, 1}, []float64{0, 1}, []float64{1, negZero},
			[]float64{0, 0}, []float64{-1, m}, []float64{negZero, negZero},
			[]float64{0, 2},
		), [][]int{{0, 1, 7}, {0, 3, 4, 7}, {0, 5, 6, 7}}},
	} {
		for k := 1; k <= 7; k++ {
			check(fmt.Sprintf("%s, %d slices", tc.name, k), tc.ds, even(tc.ds.Len(), k))
		}
		for _, cuts := range tc.cuts {
			check(tc.name, tc.ds, cuts)
		}
	}
}
