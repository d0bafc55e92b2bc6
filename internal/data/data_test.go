package data_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/paperdata"
	"repro/internal/wal"
)

func TestAppendAndAccessors(t *testing.T) {
	ds := data.New(3)
	i, err := ds.Append("x", []float64{1, data.Missing(), 3})
	if err != nil {
		t.Fatal(err)
	}
	o := ds.Obj(i)
	if !o.Observed(0) || o.Observed(1) || !o.Observed(2) {
		t.Fatal("mask wrong")
	}
	if o.ObservedCount() != 2 {
		t.Fatalf("ObservedCount = %d", o.ObservedCount())
	}
	if !math.IsNaN(o.Values[1]) {
		t.Fatal("missing value not NaN")
	}
	if ds.Len() != 1 || ds.Dim() != 3 {
		t.Fatal("Len/Dim wrong")
	}
}

func TestAppendRejectsAllMissing(t *testing.T) {
	ds := data.New(2)
	if _, err := ds.Append("bad", []float64{data.Missing(), data.Missing()}); err == nil {
		t.Fatal("expected error for fully-missing object")
	}
}

func TestAppendRejectsWrongWidth(t *testing.T) {
	ds := data.New(2)
	if _, err := ds.Append("bad", []float64{1}); err == nil {
		t.Fatal("expected error for wrong width")
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	for _, dim := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", dim)
				}
			}()
			data.New(dim)
		}()
	}
}

func TestComparableWith(t *testing.T) {
	ds := paperdata.Sample()
	c := ds.Obj(paperdata.Index("C2")) // dims 1,4
	e := ds.Obj(paperdata.Index("A2")) // dims 2,3,4
	b := ds.Obj(paperdata.Index("B3")) // dims 3,4
	if !c.ComparableWith(e) {
		t.Fatal("C2 and A2 share dim 4")
	}
	if !e.ComparableWith(b) {
		t.Fatal("A2 and B3 share dims 3 and 4")
	}
}

func TestIncomparableObjects(t *testing.T) {
	ds := data.New(2)
	a := ds.MustAppend("a", []float64{5, data.Missing()})
	b := ds.MustAppend("b", []float64{data.Missing(), 4})
	if ds.Obj(a).ComparableWith(ds.Obj(b)) {
		t.Fatal("objects with disjoint masks must be incomparable (Fig. 2 c vs e)")
	}
}

func TestMissingRate(t *testing.T) {
	ds := paperdata.Sample()
	// Fig. 3: 20 objects x 4 dims; each object misses exactly 1 dim,
	// except the A and B buckets... count: A misses 1 each (5), B misses
	// 2 each (10), C misses 2 each (10), D misses 1 each (5) = 30/80.
	if got, want := ds.MissingRate(), 30.0/80.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MissingRate = %v, want %v", got, want)
	}
	if data.New(2).MissingRate() != 0 {
		t.Fatal("MissingRate of empty dataset")
	}
}

func TestStats(t *testing.T) {
	ds := paperdata.Sample()
	st := ds.Stats()
	// §4.3: dimension 1 has four distinct values {2,3,4,5} and 10 missing.
	if st[0].Cardinality() != 4 {
		t.Fatalf("dim1 cardinality = %d, want 4", st[0].Cardinality())
	}
	if st[0].MissingCount != 10 {
		t.Fatalf("dim1 missing = %d, want 10", st[0].MissingCount)
	}
	// §4.4: N11=4, N12=4, N13=1, N14=1.
	want := []int{4, 4, 1, 1}
	for i, w := range want {
		if st[0].CountPerValue[i] != w {
			t.Fatalf("dim1 CountPerValue = %v, want %v", st[0].CountPerValue, want)
		}
	}
	if st[0].Rank(3) != 1 || st[0].Rank(2.5) != -1 {
		t.Fatal("Rank wrong")
	}
	if st[0].RankGE(2.5) != 1 || st[0].RankGE(2) != 0 || st[0].RankGE(6) != 4 {
		t.Fatal("RankGE wrong")
	}
	// Dimension 4 is fully observed (S4 = ∅, used for MaxScore(B3)).
	if st[3].MissingCount != 0 {
		t.Fatalf("dim4 missing = %d, want 0", st[3].MissingCount)
	}
}

func TestBuckets(t *testing.T) {
	ds := paperdata.Sample()
	buckets := ds.Buckets()
	if len(buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4 (Fig. 4)", len(buckets))
	}
	for mask, ids := range buckets {
		if len(ids) != 5 {
			t.Fatalf("bucket %b has %d objects, want 5", mask, len(ids))
		}
	}
}

func TestNegate(t *testing.T) {
	ds := data.New(2)
	ds.MustAppend("a", []float64{1, data.Missing()})
	ds.Negate()
	if ds.Obj(0).Values[0] != -1 {
		t.Fatal("Negate did not flip observed value")
	}
	if !math.IsNaN(ds.Obj(0).Values[1]) {
		t.Fatal("Negate touched missing value")
	}
}

func TestCloneIsDeep(t *testing.T) {
	ds := paperdata.Sample()
	cp := ds.Clone()
	cp.Obj(0).Values[1] = 99
	if ds.Obj(0).Values[1] == 99 {
		t.Fatal("Clone shares value storage")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	ds := paperdata.Sample()
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Break an invariant by hand.
	ds.Obj(0).Mask = 0
	if err := ds.Validate(); err == nil {
		t.Fatal("Validate accepted zero mask")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := paperdata.Sample()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := data.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.Dim() != ds.Dim() {
		t.Fatalf("shape mismatch: %dx%d", got.Len(), got.Dim())
	}
	for i := 0; i < ds.Len(); i++ {
		a, b := ds.Obj(i), got.Obj(i)
		if a.ID != b.ID || a.Mask != b.Mask {
			t.Fatalf("object %d id/mask mismatch", i)
		}
		for d := 0; d < ds.Dim(); d++ {
			if a.Observed(d) && a.Values[d] != b.Values[d] {
				t.Fatalf("object %d dim %d: %v vs %v", i, d, a.Values[d], b.Values[d])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                    // no header
		"x,v1\na,1\n",         // bad header
		"id,v1,v2\na,1\n",     // short row is a csv error
		"id,v1,v2\na,zap,1\n", // unparseable number
		"id,v1,v2\na,-,-\n",   // fully missing object
	}
	for _, c := range cases {
		if _, err := data.ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", c)
		}
	}
}

func TestReadCSVAcceptsEmptyCellAsMissing(t *testing.T) {
	ds, err := data.ReadCSV(strings.NewReader("id,v1,v2\na,1,\nb,-,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Obj(0).Observed(1) || ds.Obj(1).Observed(0) {
		t.Fatal("empty or dash cell should be missing")
	}
}

// fpRows is a small fixed row set for the fingerprint properties: duplicate
// values, missing cells, and IDs that only a terminator keeps apart.
func fpRows() (ids []string, rows [][]float64) {
	m := data.Missing()
	return []string{"ab", "c", "a", "bc", "e"},
		[][]float64{{1, 2, m}, {m, 2, 3}, {1, m, m}, {4, 5, 6}, {m, m, 0.5}}
}

func build(t *testing.T, dim int, ids []string, rows [][]float64) *data.Dataset {
	t.Helper()
	ds := data.New(dim)
	for i := range ids {
		if _, err := ds.Append(ids[i], rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestFingerprintIsAFunctionOfTheRows: whatever path assembles the same rows
// — row-by-row Append, a CSV round trip, Clone, a prefix view extended by
// the rest, a WAL replay — and whether or not the chain was sealed on the
// way, the fingerprint is the same.
func TestFingerprintIsAFunctionOfTheRows(t *testing.T) {
	ids, rows := fpRows()
	ref := build(t, 3, ids, rows)
	want := ref.Fingerprint()

	check := func(name string, ds *data.Dataset) {
		t.Helper()
		if got := ds.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %016x, want %016x", name, got, want)
		}
		ds.Seal()
		if got := ds.Fingerprint(); got != want {
			t.Errorf("%s, sealed: fingerprint %016x, want %016x", name, got, want)
		}
	}
	check("Append", build(t, 3, ids, rows))

	var buf bytes.Buffer
	if err := ref.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := data.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadCSV", parsed)
	check("Clone", ref.Clone())

	sealedRef := build(t, 3, ids, rows)
	sealedRef.Seal()
	check("Clone of a sealed dataset", sealedRef.Clone())
	check("Slice(0, Len) of a sealed dataset", sealedRef.Slice(0, sealedRef.Len()))

	for cut := 0; cut <= len(ids); cut++ {
		for _, seal := range []bool{false, true} {
			base := build(t, 3, ids[:cut], rows[:cut])
			whole := build(t, 3, ids, rows) // a longer parent the prefix view is cut from
			if seal {
				base.Seal()
				whole.Seal()
			}
			ext := base.Extend(len(ids) - cut)
			viaSlice := whole.Slice(0, cut).Extend(len(ids) - cut)
			for i := cut; i < len(ids); i++ {
				ext.MustAppend(ids[i], rows[i])
				viaSlice.MustAppend(ids[i], rows[i])
			}
			check("Extend", ext)
			check("Slice(0,n) then extend", viaSlice)
		}
	}

	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]wal.Row, len(ids))
	for i := range ids {
		batch[i] = wal.Row{ID: ids[i], Values: rows[i]}
	}
	if err := l.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, rec, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	replayed := data.New(3)
	for _, r := range rec.Rows {
		replayed.MustAppend(r.ID, r.Values)
	}
	check("WAL replay", replayed)
}

// TestFingerprintTellsDatasetsApart: row order, ID boundaries, a dropped last
// row, dimensionality and a flipped sign all move it.
func TestFingerprintTellsDatasetsApart(t *testing.T) {
	ids, rows := fpRows()
	want := build(t, 3, ids, rows).Fingerprint()
	differs := func(name string, ds *data.Dataset) {
		t.Helper()
		if ds.Fingerprint() == want {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
	swappedIDs, swappedRows := slices.Clone(ids), slices.Clone(rows)
	swappedIDs[0], swappedIDs[4] = swappedIDs[4], swappedIDs[0]
	swappedRows[0], swappedRows[4] = swappedRows[4], swappedRows[0]
	differs("row order", build(t, 3, swappedIDs, swappedRows))
	differs("dropped last row", build(t, 3, ids[:4], rows[:4]))

	// {"ab","c"} against {"a","bc"} with everything else equal.
	same := [][]float64{{1, 2}, {1, 2}}
	if build(t, 2, []string{"ab", "c"}, same).Fingerprint() == build(t, 2, []string{"a", "bc"}, same).Fingerprint() {
		t.Error(`{"ab","c"} and {"a","bc"} share a fingerprint`)
	}
	// The same observed cells under a wider dimensionality.
	m := data.Missing()
	narrow := build(t, 2, []string{"x"}, [][]float64{{1, 2}})
	wide := build(t, 3, []string{"x"}, [][]float64{{1, 2, m}})
	if narrow.Fingerprint() == wide.Fingerprint() {
		t.Error("dimensionality does not reach the fingerprint")
	}
	if data.New(2).Fingerprint() == data.New(3).Fingerprint() {
		t.Error("empty datasets of different dimensionality share a fingerprint")
	}
}

// TestNegateRestartsTheChain: an in-place rewrite of rows the chain already
// folded must not leave the old digest behind — sealed before or not, the
// negated dataset hashes like one built from the negated values, and negating
// back restores the original.
func TestNegateRestartsTheChain(t *testing.T) {
	ids, rows := fpRows()
	neg := make([][]float64, len(rows))
	for i, r := range rows {
		neg[i] = make([]float64, len(r))
		for d, v := range r {
			neg[i][d] = -v // −NaN is NaN: missing stays missing
		}
	}
	orig, want := build(t, 3, ids, rows).Fingerprint(), build(t, 3, ids, neg).Fingerprint()
	for _, seal := range []bool{false, true} {
		ds := build(t, 3, ids, rows)
		if seal {
			ds.Seal()
		}
		ds.Negate()
		if got := ds.Fingerprint(); got != want || got == orig {
			t.Fatalf("sealed=%v: negated fingerprint %016x, want %016x (original %016x)", seal, got, want, orig)
		}
		ds.Seal()
		ds.Negate()
		if got := ds.Fingerprint(); got != orig {
			t.Fatalf("sealed=%v: negating back gives %016x, want the original %016x", seal, got, orig)
		}
	}
}

// TestSealHashesOnlyNewRows: a sealed dataset answers Fingerprint without
// touching a row, and sealing an extension folds the extension's rows alone.
func TestSealHashesOnlyNewRows(t *testing.T) {
	ds := data.New(2)
	for i := 0; i < 1000; i++ {
		ds.MustAppend("r", []float64{float64(i), data.Missing()})
	}
	hashed := func(fn func()) int64 {
		before := data.RowsHashed()
		fn()
		return data.RowsHashed() - before
	}
	if n := hashed(func() { ds.Fingerprint() }); n != 1000 {
		t.Fatalf("Fingerprint of an unsealed dataset folded %d rows, want 1000", n)
	}
	if n := hashed(ds.Seal); n != 1000 {
		t.Fatalf("Seal folded %d rows, want 1000", n)
	}
	if n := hashed(func() { ds.Seal(); ds.Fingerprint(); ds.Clone().Fingerprint(); ds.Slice(0, 1000).Fingerprint() }); n != 0 {
		t.Fatalf("a sealed dataset, its clone and its full view folded %d rows, want 0", n)
	}
	next := ds.Extend(20)
	for i := 0; i < 20; i++ {
		next.MustAppend("x", []float64{1, 2})
	}
	if n := hashed(func() { next.Seal(); next.Fingerprint() }); n != 20 {
		t.Fatalf("sealing a 20-row extension folded %d rows, want 20", n)
	}
	// A strict prefix of what the chain folded cannot continue it.
	if n := hashed(func() { ds.Slice(0, 400).Fingerprint() }); n != 400 {
		t.Fatalf("a 400-row prefix view folded %d rows, want 400", n)
	}
}

// TestExtendHasOneClaimant: the first extension of a dataset appends into the
// shared backing array, the second copies; neither sees the other's rows,
// the base keeps its own, and a base that appends after being extended
// leaves the extension's rows alone.
func TestExtendHasOneClaimant(t *testing.T) {
	base := data.New(2)
	for i := 0; i < 100; i++ {
		base.MustAppend("b", []float64{float64(i), 1})
	}
	base.Seal()
	fp, mr := base.Fingerprint(), base.MissingRate()

	// Spare capacity comes from Append's own growth; claim it.
	first := base.Extend(3)
	second := base.Extend(3)
	for i := 0; i < 3; i++ {
		first.MustAppend("first", []float64{-1, data.Missing()})
		second.MustAppend("second", []float64{-2, -2})
	}
	if first.Obj(0) != base.Obj(0) {
		t.Error("first extension copied the base rows")
	}
	if second.Obj(0) == base.Obj(0) {
		t.Error("second extension shares the base's backing array too")
	}
	for i := 100; i < 103; i++ {
		if first.Obj(i).ID != "first" || second.Obj(i).ID != "second" {
			t.Fatalf("row %d: extensions see each other's tail (%q / %q)", i, first.Obj(i).ID, second.Obj(i).ID)
		}
	}
	if base.Len() != 100 || base.Fingerprint() != fp || base.MissingRate() != mr {
		t.Fatal("extending changed the base")
	}
	if got, want := first.MissingRate(), 3.0/206.0; got != want {
		t.Fatalf("extension's missing rate %v, want %v (carried count + its own rows)", got, want)
	}

	base.MustAppend("late", []float64{7, 7})
	if first.Obj(100).ID != "first" {
		t.Fatal("an append to the extended base overwrote the extension's first row")
	}
	if base.Obj(100).ID != "late" || base.Len() != 101 {
		t.Fatal("the base lost its own append")
	}
}

// TestMissingRateCarriedForward: the running count equals a scan on every
// construction path, and a row-range view falls back to the scan.
func TestMissingRateCarriedForward(t *testing.T) {
	ds := paperdata.Sample()
	want := 30.0 / 80.0
	for name, v := range map[string]*data.Dataset{
		"Clone": ds.Clone(), "full view": ds.Slice(0, ds.Len()), "Extend": ds.Extend(0),
	} {
		if got := v.MissingRate(); got != want {
			t.Errorf("%s: MissingRate = %v, want %v", name, got, want)
		}
	}
	half := ds.Slice(5, 15) // buckets B and C: two missing cells per row
	if got := half.MissingRate(); got != 0.5 {
		t.Errorf("row-range view: MissingRate = %v, want 0.5", got)
	}
	ds.Negate()
	if got := ds.MissingRate(); got != want {
		t.Errorf("after Negate: MissingRate = %v, want %v", got, want)
	}
}

// TestSortMatchesStats: the one sort per dimension the cold build runs must
// read the same summary off the rows as Stats does, rank every cell the way
// DimStats.Rank would, and list each dimension's observed objects by
// ascending value, ties by index — at any GOMAXPROCS, since the dimensions
// sort side by side.
func TestSortMatchesStats(t *testing.T) {
	m := data.Missing()
	rng := rand.New(rand.NewSource(24))
	random := data.New(5)
	for i := 0; i < 3000; i++ {
		row := make([]float64, 5)
		for d := range row {
			switch {
			case rng.Float64() < 0.25 && d > 0:
				row[d] = m
			case d == 1:
				row[d] = rng.NormFloat64() * 1e3 // continuous, both signs
			case d == 2:
				row[d] = float64(rng.Intn(7)) - 3 // heavy ties around zero
			default:
				row[d] = float64(rng.Intn(300))
			}
		}
		random.MustAppend(fmt.Sprintf("r%d", i), row)
	}
	edge := data.New(3) // −0 and +0 share a rank; dimension 2 is missing everywhere
	for i, row := range [][]float64{{0, 1, m}, {math.Copysign(0, -1), 1, m}, {-1, m, m}, {math.Inf(1), 1, m}, {math.Inf(-1), 2, m}} {
		edge.MustAppend(fmt.Sprintf("e%d", i), row)
	}
	one := data.New(2)
	one.MustAppend("only", []float64{m, 4})

	for name, ds := range map[string]*data.Dataset{
		"paper sample": paperdata.Sample(), "random": random, "edge": edge, "n=1": one, "empty": data.New(3),
	} {
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			s := ds.SortDims()
			runtime.GOMAXPROCS(prev)
			stats := ds.Stats()
			if !reflect.DeepEqual(s.Stats, stats) {
				t.Fatalf("%s, GOMAXPROCS %d: Sort().Stats differs from Stats()", name, procs)
			}
			n, dim := ds.Len(), ds.Dim()
			for d := 0; d < dim; d++ {
				seen := 0
				for i := 0; i < n; i++ {
					want := -1
					if o := ds.Obj(i); o.Observed(d) {
						want = stats[d].Rank(o.Values[d])
						seen++
					}
					if got := int(s.Ranks[i*dim+d]); got != want {
						t.Fatalf("%s, GOMAXPROCS %d: rank of object %d in dimension %d = %d, want %d", name, procs, i, d, got, want)
					}
				}
				order := s.Order[d]
				if len(order) != seen {
					t.Fatalf("%s: dimension %d orders %d objects, %d are observed", name, d, len(order), seen)
				}
				for j := 1; j < len(order); j++ {
					a, b := ds.Obj(int(order[j-1])).Values[d], ds.Obj(int(order[j])).Values[d]
					if a > b || (a == b && order[j-1] >= order[j]) {
						t.Fatalf("%s: dimension %d order breaks at %d: object %d (%v) before object %d (%v)", name, d, j, order[j-1], a, order[j], b)
					}
				}
			}
		}
	}
}
