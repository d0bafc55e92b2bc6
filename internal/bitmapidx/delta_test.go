package bitmapidx

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/data"
)

// randIncomplete builds a random incomplete dataset over a small value grid
// (forcing duplicate values) with roughly the given missing rate.
func randIncomplete(rng *rand.Rand, n, dim, grid int, missRate float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		vals := make([]float64, dim)
		observed := false
		for d := range vals {
			if rng.Float64() < missRate {
				vals[d] = data.Missing()
			} else {
				vals[d] = float64(rng.Intn(grid))
				observed = true
			}
		}
		if !observed {
			vals[rng.Intn(dim)] = float64(rng.Intn(grid))
		}
		rows[i] = vals
	}
	return rows
}

// deltaFixture returns a base dataset and its extension by rows exercising
// every insertion case: existing values, brand-new values below / between /
// above the old domain, and near-empty masks.
func deltaFixture(seed int64) (base, next *data.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	const n, dim, grid = 240, 4, 9
	rows := randIncomplete(rng, n, dim, grid, 0.3)
	extra := randIncomplete(rng, 12, dim, grid, 0.3)
	extra = append(extra,
		[]float64{-3, 2.5, float64(grid) + 4, 1},              // below / between / above / existing
		[]float64{data.Missing(), data.Missing(), 0.25, -0.5}, // new values, sparse mask
		[]float64{4, 4, 4, 4},                                 // all existing
	)
	base = data.New(dim)
	next = data.New(dim)
	for i, vals := range rows {
		id := fmt.Sprintf("o%d", i)
		base.MustAppend(id, vals)
		next.MustAppend(id, vals)
	}
	for i, vals := range extra {
		next.MustAppend(fmt.Sprintf("x%d", i), vals)
	}
	return base, next
}

func colBits(t *testing.T, ix *Index, d, b int) *bitvec.Vector {
	t.Helper()
	v := bitvec.New(ix.ds.Len())
	decompressInto(&ix.dims[d].cols[b], v)
	return v
}

// TestAppendRowsEquivalence checks the patched index against a from-scratch
// build under the same frozen bin layout: identical stats, ranks and
// column bits, with each column keeping its pre-patch physical
// representation and a re-measured run-native flag.
func TestAppendRowsEquivalence(t *testing.T) {
	base, next := deltaFixture(3)
	cases := []struct {
		name string
		opts Options
	}{
		{"rawBinned", Options{Codec: Raw, Bins: []int{4}}},
		{"conciseBinned", Options{Codec: Concise, Bins: []int{3}}},
		{"adaptive", Options{Codec: Concise, Bins: []int{4}, Adaptive: true}},
		{"optimalBins", Options{Codec: Concise, Bins: []int{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := Build(base, tc.opts)
			patched, ok := AppendRows(old, next)
			if !ok {
				t.Fatal("AppendRows fell back on a patchable append")
			}
			if old.ds.Len() != base.Len() {
				t.Fatal("AppendRows mutated the old index's dataset")
			}
			if got, want := patched.Stats(), next.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatal("merged stats differ from recomputed stats")
			}

			// Ranks match a recompute from the merged stats.
			ref := &Index{
				ds:       next,
				stats:    patched.stats,
				codec:    patched.codec,
				adaptive: patched.adaptive,
				ones:     bitvec.NewOnes(next.Len()),
			}
			if err := ref.computeRanks(); err != nil {
				t.Fatal(err)
			}
			for i := range ref.ranks {
				if !reflect.DeepEqual(ref.ranks[i], patched.ranks[i]) {
					t.Fatalf("ranks of object %d diverge: %v != %v", i, patched.ranks[i], ref.ranks[i])
				}
			}

			for d := 0; d < next.Dim(); d++ {
				r2b := patched.dims[d].rankToBucket
				if len(r2b) != patched.stats[d].Cardinality() {
					t.Fatalf("dim %d: rankToBucket covers %d ranks, want %d", d, len(r2b), patched.stats[d].Cardinality())
				}
				for r := 1; r < len(r2b); r++ {
					if r2b[r] < r2b[r-1] {
						t.Fatalf("dim %d: rankToBucket not monotone at rank %d", d, r)
					}
				}
				buckets := len(patched.dims[d].cols) - 1
				if buckets != len(old.dims[d].cols)-1 {
					t.Fatalf("dim %d: bucket count changed %d -> %d", d, len(old.dims[d].cols)-1, buckets)
				}
				want := ref.buildDim(d, r2b, buckets)
				for b := range want.cols {
					exp := bitvec.New(next.Len())
					decompressInto(&want.cols[b], exp)
					if !colBits(t, patched, d, b).Equal(exp) {
						t.Fatalf("dim %d column %d bits diverge from scratch build", d, b)
					}
					pc, oc := &patched.dims[d].cols[b], &old.dims[d].cols[b]
					if pc.kind != oc.kind {
						t.Fatalf("dim %d column %d changed representation %d -> %d", d, b, oc.kind, pc.kind)
					}
					if pc.kind == kindConcise && pc.runNative != runNativeWorthwhile(pc.conc.Words(), pc.conc.NBits()) {
						t.Fatalf("dim %d column %d: stale run-native flag", d, b)
					}
				}
			}
			if patched.codec != Raw && len(patched.clock) == 0 {
				t.Fatal("patched compressed index has no column cache")
			}
		})
	}
}

// TestAppendRowsQueries cross-checks the query surface: Q/P vectors and
// MaxBitScore of the patched index match a from-scratch build with the same
// frozen bins for every object.
func TestAppendRowsQueries(t *testing.T) {
	base, next := deltaFixture(7)
	old := Build(base, Options{Codec: Concise, Bins: []int{4}, Adaptive: true})
	patched, ok := AppendRows(old, next)
	if !ok {
		t.Fatal("AppendRows fell back")
	}
	scratch := &Index{
		ds:       next,
		stats:    patched.stats,
		dims:     make([]dimIndex, next.Dim()),
		codec:    patched.codec,
		binned:   true,
		adaptive: patched.adaptive,
		ranks:    patched.ranks,
		ones:     bitvec.NewOnes(next.Len()),
	}
	for d := range scratch.dims {
		scratch.dims[d] = scratch.buildDim(d, patched.dims[d].rankToBucket, len(patched.dims[d].cols)-1)
	}
	scratch.initColCache()
	cp, cs := patched.NewCursor(), scratch.NewCursor()
	for i := 0; i < next.Len(); i++ {
		qp, pp := cp.QP(i)
		qs, ps := cs.QP(i)
		if !qp.Equal(qs) || !pp.Equal(ps) {
			t.Fatalf("object %d: Q/P diverge between patched and scratch index", i)
		}
		if got, want := cp.MaxBitScore(i), cs.MaxBitScore(i); got != want {
			t.Fatalf("object %d: MaxBitScore %d != %d", i, got, want)
		}
	}
}

// TestAppendRowsFallbacks pins every condition under which AppendRows must
// decline and leave the caller to rebuild.
func TestAppendRowsFallbacks(t *testing.T) {
	base, next := deltaFixture(11)

	unbinned := Build(base, Options{Codec: Raw})
	if _, ok := AppendRows(unbinned, next); ok {
		t.Error("unbinned index must fall back: value-rank columns shift on insertion")
	}

	binned := Build(base, Options{Codec: Concise, Bins: []int{4}})
	if _, ok := AppendRows(binned, base); ok {
		t.Error("zero-row delta must fall back")
	}

	wider := data.New(base.Dim() + 1)
	for i := 0; i < base.Len()+1; i++ {
		wider.MustAppend(fmt.Sprintf("w%d", i), []float64{1, 2, 3, 4, 5})
	}
	if _, ok := AppendRows(binned, wider); ok {
		t.Error("dimensionality mismatch must fall back")
	}

	// A dimension with no observed values has no bin structure to extend.
	zc := data.New(2)
	zc.MustAppend("a", []float64{1, data.Missing()})
	zc.MustAppend("b", []float64{2, data.Missing()})
	zcIdx := Build(zc, Options{Codec: Concise, Bins: []int{2}})

	gains := data.New(2)
	gains.MustAppend("a", []float64{1, data.Missing()})
	gains.MustAppend("b", []float64{2, data.Missing()})
	gains.MustAppend("c", []float64{3, 7})
	if _, ok := AppendRows(zcIdx, gains); ok {
		t.Error("empty dimension gaining its first value must fall back")
	}

	stays := data.New(2)
	stays.MustAppend("a", []float64{1, data.Missing()})
	stays.MustAppend("b", []float64{2, data.Missing()})
	stays.MustAppend("c", []float64{3, data.Missing()})
	patched, ok := AppendRows(zcIdx, stays)
	if !ok {
		t.Fatal("empty dimension staying empty should patch")
	}
	if got := patched.Bucket(2, 0); got != 1 {
		t.Errorf("appended row bucket = %d, want 1", got)
	}
	if got := patched.Bucket(2, 1); got != -1 {
		t.Errorf("appended row bucket in empty dim = %d, want -1", got)
	}
}

// TestAppendRowsMaskCounts: the per-mask row counts AppendRows carries forward
// from the old epoch equal a fresh Build's over the extended dataset, sum to
// N, and a Save/Load round trip recomputes the same counts; IncomparableRows
// agrees with a scan of the rows.
func TestAppendRowsMaskCounts(t *testing.T) {
	base, next := deltaFixture(5)
	opts := Options{Codec: Concise, Bins: []int{3}, Adaptive: true}
	old := Build(base, opts)
	patched, ok := AppendRows(old, next)
	if !ok {
		t.Fatal("AppendRows refused a strict row extension")
	}
	fresh := Build(next, opts)
	if !reflect.DeepEqual(patched.masks, fresh.masks) {
		t.Fatalf("patched mask counts %v, fresh build %v", patched.masks, fresh.masks)
	}
	total := 0
	for _, mc := range patched.masks {
		total += mc.rows
	}
	if total != next.Len() {
		t.Fatalf("mask counts sum to %d, dataset has %d rows", total, next.Len())
	}
	var buf bytes.Buffer
	if err := patched.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, next)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.masks, fresh.masks) {
		t.Fatalf("loaded mask counts %v, fresh build %v", loaded.masks, fresh.masks)
	}
	for mask := uint64(0); mask < 1<<uint(next.Dim()); mask++ {
		want := 0
		for i := 0; i < next.Len(); i++ {
			if next.Obj(i).Mask&mask == 0 {
				want++
			}
		}
		if got := patched.IncomparableRows(mask); got != want {
			t.Fatalf("IncomparableRows(%04b) = %d, scan says %d", mask, got, want)
		}
	}
}
