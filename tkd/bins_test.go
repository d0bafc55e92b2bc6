package tkd

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitmapidx"
)

// TestServingBinsFloor pins the serving bin rule on both sides of one kernel
// block of rows. On the query-light shape (2,000 × 4, c 40, σ 0.2) every
// dimension asks bitmapidx.ValueGranularBins and so gives each of its values a
// bucket of its own: IBIG walks no row and returns Naive's items at every k
// from 1 to 64. On the 100 k × 5, c 100, σ 0.2 shape of query-heavy and
// ingest the rule is 2 · Eq. (8) = 78 bins in every dimension, and the index
// file is the 4,947,933 bytes the benchmark reports as bitmapidx.index_bytes:
// 395 dense columns, whatever order the rows come in.
func TestServingBinsFloor(t *testing.T) {
	light := GenerateIND(2000, 4, 40, 0.2, 1)
	light.PrepareFor(IBIG)
	ix := light.current().part.Built().Binned
	bins := binsPerDim(ix)
	for d, st := range ix.Stats() {
		if c := len(st.CountPerValue); bins[d] != c {
			t.Errorf("query-light dimension %d: %d buckets for %d values, want one a value", d, bins[d], c)
		}
	}
	oracle, err := light.TopK(64, WithAlgorithm(Naive)) // every top-k is its prefix
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 64; k++ {
		var st Stats
		got, err := light.TopK(k, WithStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Items[:k]; !slices.Equal(got.Items, want) {
			t.Fatalf("k=%d: IBIG %v, Naive %v", k, got.Items, want)
		}
		if st.Comparisons != 0 {
			t.Errorf("k=%d: IBIG walked %d rows, want 0", k, st.Comparisons)
		}
	}

	heavy := GenerateIND(100_000, 5, 100, 0.2, 1)
	heavy.PrepareFor(IBIG)
	if got, want := binsPerDim(heavy.current().part.Built().Binned), []int{78, 78, 78, 78, 78}; !slices.Equal(got, want) {
		t.Errorf("100k x 5 bins per dimension %v, want %v", got, want)
	}
	var saved bytes.Buffer
	if err := heavy.SaveIndex(&saved); err != nil {
		t.Fatal(err)
	}
	if saved.Len() != 4_947_933 {
		t.Errorf("100k x 5 index file is %d B, want 4,947,933", saved.Len())
	}
}

// TestAppendLeavesBinFloor: a dataset registered within one kernel block of
// rows and grown past it by appends takes the large-N layout once. An append
// that stays within the block patches the 64-bin index; the append that
// crosses it rebuilds, at 2 · Eq. (8) for the grown N and σ; later appends
// patch that layout, so a 20-row publish at 20 k rows stays within the
// 48 B/row budget TestAppendPublishBytesBounded holds a dataset registered at
// that size to (64 bins a dimension cost ≈ 62 B/row there).
func TestAppendLeavesBinFloor(t *testing.T) {
	const dim, card, budget = 5, 64, 48
	rng := rand.New(rand.NewSource(7))
	batch := func(n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			vals := make([]float64, dim)
			for d := range vals {
				vals[d] = float64(rng.Intn(card))
				if rng.Float64() < 0.02 {
					vals[d] = Missing
				}
			}
			vals[rng.Intn(dim)] = float64(rng.Intn(card))
			rows[i] = Row{ID: fmt.Sprintf("a%d", rng.Int63()), Values: vals}
		}
		return rows
	}
	ds := GenerateIND(8000, dim, card, 0.02, 31)
	ds.PrepareFor(IBIG)
	layout := func() []int { return binsPerDim(ds.current().part.Built().Binned) }
	floor := slices.Repeat([]int{bitmapidx.ValueGranularBins}, dim)
	if got := layout(); !slices.Equal(got, floor) {
		t.Fatalf("8,000 rows: bins %v, want %v", got, floor)
	}
	if patched, err := ds.AppendRows(batch(100)); err != nil || !patched {
		t.Fatalf("append within the block: patched=%v err=%v", patched, err)
	}
	if got := layout(); !slices.Equal(got, floor) {
		t.Fatalf("8,100 rows: bins %v, want %v", got, floor)
	}
	if patched, err := ds.AppendRows(batch(11_900)); err != nil || patched {
		t.Fatalf("append past the block: patched=%v err=%v, want a rebuild", patched, err)
	}
	cur := ds.current().ds
	rule := bitmapidx.ServingBins(cur.Len(), cur.MissingRate())
	if rule >= card {
		t.Fatalf("the fixture must sit where 2 · Eq. (8) = %d is below its %d values", rule, card)
	}
	grown := layout()
	if want := slices.Repeat([]int{rule}, dim); !slices.Equal(grown, want) {
		t.Fatalf("20,000 rows: bins %v, want %v", grown, want)
	}
	if patched, err := ds.AppendRows(batch(20)); err != nil || !patched {
		t.Fatalf("warm-up publish: patched=%v err=%v", patched, err)
	}
	rows := batch(20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	patched, err := ds.AppendRows(rows)
	runtime.ReadMemStats(&after)
	if err != nil || !patched {
		t.Fatalf("publish: patched=%v err=%v", patched, err)
	}
	if got := layout(); !slices.Equal(got, grown) {
		t.Fatalf("a patch moved the layout: %v, was %v", got, grown)
	}
	n := ds.current().ds.Len()
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d rows, %d bins a dimension: one 20-row publish allocated %d bytes (%.1f B/row)", n, rule, bytes, float64(bytes)/float64(n))
	if bytes > uint64(budget*n) {
		t.Errorf("one 20-row publish at %d rows allocated %d bytes, over the %d B/row budget (%d)", n, bytes, budget, budget*n)
	}
}
