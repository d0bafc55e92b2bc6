package bitmapidx

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/gen"
)

// TestSortedRanksMatchFillRanks ties the rank table a build takes from the
// sort to the one AppendRows' lookup would compute: over the same rows,
// SortDims' stats are Dataset.Stats()'s and its ranks are fillRanks' under
// them — and fillRanks still refuses a value the stats do not hold, the one
// failure the lookup has that the sort cannot.
func TestSortedRanksMatchFillRanks(t *testing.T) {
	for _, cfg := range []gen.Config{
		{N: 400, Dim: 4, Cardinality: 9, MissingRate: 0.3, Dist: gen.IND, Seed: 71},
		{N: 300, Dim: 6, Cardinality: 200, MissingRate: 0.5, Dist: gen.AC, Seed: 72},
		{N: 1, Dim: 3, Cardinality: 2, MissingRate: 0, Dist: gen.IND, Seed: 73},
	} {
		ds := gen.Synthetic(cfg)
		sorted, stats := ds.SortDims(), ds.Stats()
		if !reflect.DeepEqual(sorted.Stats, stats) {
			t.Fatalf("cfg=%+v: sorted stats differ from Stats()", cfg)
		}
		want := make([]int32, ds.Len()*ds.Dim())
		if err := fillRanks(want, ds, 0, stats); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sorted.Ranks, want) {
			t.Fatalf("cfg=%+v: sorted ranks differ from fillRanks", cfg)
		}
		if ix := Build(ds, Options{}); !slices.Equal(ix.Ranks(), want) {
			t.Fatalf("cfg=%+v: a built index's ranks differ from fillRanks", cfg)
		}
	}

	ds := data.New(2)
	ds.MustAppend("a", []float64{1, 2})
	ds.MustAppend("b", []float64{3, 2})
	stats := ds.Stats()
	stats[0].Distinct, stats[0].CountPerValue = stats[0].Distinct[:1], stats[0].CountPerValue[:1] // forget the 3
	err := fillRanks(make([]int32, 4), ds, 0, stats)
	if err == nil || !strings.Contains(err.Error(), "absent from dimension 0 stats") {
		t.Fatalf("fillRanks over stats missing a value: err = %v", err)
	}
}
