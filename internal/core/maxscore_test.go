package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
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
		want := core.BuildMaxScoreQueueBTree(ds)
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
