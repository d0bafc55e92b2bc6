package bitmapidx

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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

func colBits(col *column) *bitvec.Vector {
	if col.kind == kindDense {
		return col.dense
	}
	return col.conc.Decompress()
}

// LiteralHeavy counts the compressed columns that are not fill-dominated —
// zero on every adaptive index, however it came to be (built, patched,
// loaded). Exported to the external tests of this package.
func (ix *Index) LiteralHeavy() int {
	n := 0
	for d := range ix.dims {
		for c := range ix.dims[d].cols {
			if col := &ix.dims[d].cols[c]; col.kind == kindConcise && !col.runNative {
				n++
			}
		}
	}
	return n
}

// TestAppendRowsEquivalence checks the patched index against a from-scratch
// build under the same frozen bin layout: identical stats, ranks and
// column bits, with each column keeping its pre-patch physical
// representation — but for an adaptive index's compressed columns that left
// fill-domination, now dense — and a re-measured run-native flag.
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

			// Ranks match a from-scratch sort of the merged rows.
			sorted := next.SortDims()
			ref := &Index{
				ds:       next,
				stats:    patched.stats,
				codec:    patched.codec,
				adaptive: patched.adaptive,
				ones:     bitvec.NewOnes(next.Len()),
			}
			if !slices.Equal(sorted.Ranks, patched.ranks) {
				t.Fatal("patched rank table diverges from a recompute")
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
				want := ref.buildDim(r2b, sorted.Stats[d].CountPerValue, sorted.Order[d])
				for b := range want.cols {
					pc, oc := &patched.dims[d].cols[b], &old.dims[d].cols[b]
					if !colBits(pc).Equal(colBits(&want.cols[b])) {
						t.Fatalf("dim %d column %d bits diverge from scratch build", d, b)
					}
					if pc.kind != oc.kind && !(patched.adaptive && pc.kind == kindDense) {
						t.Fatalf("dim %d column %d changed representation %d -> %d", d, b, oc.kind, pc.kind)
					}
					if pc.kind == kindConcise && pc.runNative != (pc.conc.Words() <= runNativeLimit(pc.conc.NBits())) {
						t.Fatalf("dim %d column %d: stale run-native flag", d, b)
					}
				}
			}
			if patched.codec != Raw && len(patched.colCache) == 0 {
				t.Fatal("patched compressed index has no column cache")
			}
			if patched.adaptive && patched.LiteralHeavy() != 0 {
				t.Fatal("patched adaptive index holds a literal-heavy compressed column")
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
	sorted := next.SortDims()
	for d := range scratch.dims {
		scratch.dims[d] = scratch.buildDim(patched.dims[d].rankToBucket, sorted.Stats[d].CountPerValue, sorted.Order[d])
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

// TestAppendRowsKeepsServingRule: "adaptive ⇒ every column is dense or
// fill-dominated" holds for a patched index as it does for a built one. The
// base is sorted on every dimension, so its columns are single runs and stay
// compressed; 200 twenty-row publishes of scattered values then take them out
// of fill-domination one by one, and each is re-stored dense in the patch
// that does it. A checkpoint saved along the way, prefix-loaded over the
// final rows and patched level, obeys the rule too; both equal a from-scratch
// build bit for bit.
func TestAppendRowsKeepsServingRule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, dim, grid, publishes, batch = 2000, 3, 16, 200, 20
	ds := data.New(dim)
	for i := 0; i < n; i++ {
		v := float64(i * grid / n)
		ds.MustAppend(fmt.Sprintf("o%d", i), []float64{v, v, v})
	}
	ix := Build(ds, Options{Codec: Concise, Bins: []int{8}, Adaptive: true})
	dense0, conc0 := ix.Representations()
	if dense0 != 0 || ix.LiteralHeavy() != 0 {
		t.Fatalf("sorted base: %d dense, %d compressed (%d literal-heavy), want every column fill-dominated", dense0, conc0, ix.LiteralHeavy())
	}
	var checkpoint bytes.Buffer
	for p := 0; p < publishes; p++ {
		ds = extendWith(ds, fmt.Sprintf("p%d-", p), randIncomplete(rng, batch, dim, grid, 0.1))
		next, ok := AppendRows(ix, ds)
		if !ok {
			t.Fatalf("publish %d fell back", p)
		}
		ix = next
		if lh := ix.LiteralHeavy(); lh != 0 {
			t.Fatalf("publish %d: %d literal-heavy compressed columns", p, lh)
		}
		if p == publishes/4 {
			if err := ix.Save(&checkpoint); err != nil {
				t.Fatal(err)
			}
		}
	}
	dense, conc := ix.Representations()
	if dense == 0 || conc < dim {
		t.Fatalf("after %d publishes: %d dense, %d compressed; want re-stored columns beside the %d all-ones ones", publishes, dense, conc, dim)
	}
	assertSameAsScratch(t, "patched", ix)

	loaded, err := LoadPrefix(bytes.NewReader(checkpoint.Bytes()), ds)
	if err != nil {
		t.Fatal(err)
	}
	level, ok := AppendRows(loaded, ds)
	if !ok {
		t.Fatal("the tail could not be patched onto the loaded checkpoint")
	}
	if loaded.LiteralHeavy() != 0 || level.LiteralHeavy() != 0 {
		t.Fatalf("checkpoint: %d literal-heavy columns as loaded, %d once patched level", loaded.LiteralHeavy(), level.LiteralHeavy())
	}
	if ld, _ := level.Representations(); ld != dense {
		t.Fatalf("checkpoint + tail stores %d columns dense, %d publishes stored %d", ld, publishes, dense)
	}
	assertSameAsScratch(t, "checkpoint + tail", level)
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
// N, and a Save/Load round trip recomputes the same counts; both evaluations
// of IncomparableRows agree with a scan of the rows.
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
	c := patched.NewCursor()
	for mask := uint64(0); mask < 1<<uint(next.Dim()); mask++ {
		want := 0
		for i := 0; i < next.Len(); i++ {
			if next.Obj(i).Mask&mask == 0 {
				want++
			}
		}
		if got := patched.disjointMaskRows(mask); got != want {
			t.Fatalf("disjointMaskRows(%04b) = %d, scan says %d", mask, got, want)
		}
		if got := c.missingEverywhere(mask); got != want {
			t.Fatalf("missingEverywhere(%04b) = %d, scan says %d", mask, got, want)
		}
		if got := c.IncomparableRows(mask); got != want {
			t.Fatalf("IncomparableRows(%04b) = %d, scan says %d", mask, got, want)
		}
	}
}

// TestAppendRowsClearsExactBucket: a bucket is exact while one value maps to
// it. A published row whose value the index has not seen is filed in its
// predecessor's bucket, which stops being exact there and then; a row whose
// value it has seen changes nothing; and the flags are derived state — a
// loaded index recomputes the same ones from the rank→bucket map it read.
func TestAppendRowsClearsExactBucket(t *testing.T) {
	base := data.New(2)
	for i, vals := range [][]float64{{0, 5}, {1, 5}, {2, 6}, {2, data.Missing()}, {0, 7}} {
		base.MustAppend(fmt.Sprintf("o%d", i), vals)
	}
	ix := Build(base, Options{Codec: Concise, Bins: []int{3}, Adaptive: true})
	if want := []bool{true, true, true}; !slices.Equal(ix.dims[0].exact, want) || !slices.Equal(ix.dims[1].exact, want) {
		t.Fatalf("three values in three bins: exact = %v, %v", ix.dims[0].exact, ix.dims[1].exact)
	}
	seen, ok := AppendRows(ix, extendWith(base, "s", [][]float64{{1, 7}}))
	if !ok || !slices.Equal(seen.dims[0].exact, []bool{true, true, true}) {
		t.Fatalf("a value the index holds: ok=%v exact=%v", ok, seen.dims[0].exact)
	}
	grown, ok := AppendRows(seen, extendWith(seen.ds, "n", [][]float64{{1.5, 4}, {data.Missing(), 9}}))
	if !ok {
		t.Fatal("AppendRows refused a strict row extension")
	}
	// 1.5 joins 1's bucket; 4 sorts below every value and joins bucket 0, 9
	// above and joins the last.
	if got, want := grown.dims[0].exact, []bool{true, false, true}; !slices.Equal(got, want) {
		t.Errorf("dimension 0 exact = %v, want %v", got, want)
	}
	if got, want := grown.dims[1].exact, []bool{false, true, false}; !slices.Equal(got, want) {
		t.Errorf("dimension 1 exact = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := grown.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, grown.ds)
	if err != nil {
		t.Fatal(err)
	}
	for d := range grown.dims {
		if !slices.Equal(loaded.dims[d].exact, grown.dims[d].exact) {
			t.Errorf("dimension %d: loaded exact = %v, patched %v", d, loaded.dims[d].exact, grown.dims[d].exact)
		}
	}
}

// extendWith returns base's rows followed by extra, built through the
// storage-sharing extension the publish path uses.
func extendWith(base *data.Dataset, prefix string, extra [][]float64) *data.Dataset {
	next := base.Extend(len(extra))
	for i, vals := range extra {
		next.MustAppend(fmt.Sprintf("%s%d", prefix, i), vals)
	}
	return next
}

// assertSameAsScratch fails unless p is the index AppendRows promises: what a
// from-scratch build over p's rows yields under p's (frozen) rank→bin maps —
// the same stats, mask counts, rank table (the sort's) and column bits.
func assertSameAsScratch(t *testing.T, label string, p *Index) {
	t.Helper()
	ds := p.ds
	sorted := ds.SortDims()
	s := &Index{
		ds:       ds,
		stats:    sorted.Stats,
		dims:     make([]dimIndex, ds.Dim()),
		codec:    p.codec,
		binned:   true,
		adaptive: p.adaptive,
		ranks:    sorted.Ranks,
		masks:    countMasks(nil, ds, 0),
		ones:     bitvec.NewOnes(ds.Len()),
	}
	if !reflect.DeepEqual(p.stats, s.stats) || !reflect.DeepEqual(p.masks, s.masks) {
		t.Fatalf("%s: stats or mask counts diverge from a from-scratch build", label)
	}
	if !slices.Equal(p.ranks, s.ranks) {
		t.Fatalf("%s: rank table diverges from the sort's", label)
	}
	for d := range s.dims {
		s.dims[d] = s.buildDim(p.dims[d].rankToBucket, sorted.Stats[d].CountPerValue, sorted.Order[d])
		if !slices.Equal(p.dims[d].exact, s.dims[d].exact) {
			t.Fatalf("%s: dim %d exact-bucket flags %v, its rank→bucket map says %v", label, d, p.dims[d].exact, s.dims[d].exact)
		}
		for b := range s.dims[d].cols {
			if !colBits(&p.dims[d].cols[b]).Equal(colBits(&s.dims[d].cols[b])) {
				t.Fatalf("%s: dim %d column %d bits diverge from a from-scratch build", label, d, b)
			}
		}
	}
}

// sharesRanks reports whether two indexes' rank tables start at the same
// address, i.e. one extended the other in place.
func sharesRanks(a, b *Index) bool { return &a.ranks[0] == &b.ranks[0] }

// TestAppendRowsTwoExtensionsOfOneBase: the spare capacity behind a base —
// its rows' and its rank table's — has a single claimant. The first patch of
// an index appends in place, a second patch of the same index copies; each
// equals a from-scratch build, neither sees the other's tail, and the base is
// untouched — all while readers keep using the base (run under -race).
func TestAppendRowsTwoExtensionsOfOneBase(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const dim, grid = 4, 9
	seed := data.New(dim)
	for i, vals := range randIncomplete(rng, 300, dim, grid, 0.3) {
		seed.MustAppend(fmt.Sprintf("o%d", i), vals)
	}
	opts := Options{Codec: Concise, Bins: []int{4}, Adaptive: true}
	// One patch first: a freshly built table has no spare capacity, a patched
	// one (grown by append) does. The grid holds every value already, so no
	// batch below brings a new distinct one and the table is extended as is.
	baseDS := extendWith(seed, "g", randIncomplete(rng, 8, dim, grid, 0.3))
	base, ok := AppendRows(Build(seed, opts), baseDS)
	if !ok {
		t.Fatal("AppendRows fell back")
	}
	baseRanks := slices.Clone(base.ranks)
	rowsA := randIncomplete(rng, 7, dim, grid, 0.3)
	rowsB := randIncomplete(rng, 11, dim, grid, 0.3)

	// Readers of the base epoch, for as long as the patches run.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			c := base.NewCursor()
			for i := 0; ; i = (i + 1) % baseDS.Len() {
				select {
				case <-stop:
					return
				default:
				}
				c.QP(i)
				for d := 0; d < dim; d++ {
					if base.Rank(i, d) != int(baseRanks[i*dim+d]) {
						t.Errorf("row %d dim %d: base rank moved under a patch", i, d)
						return
					}
				}
				baseDS.Fingerprint()
			}
		}()
	}
	a := extendWith(baseDS, "a", rowsA)
	pa, okA := AppendRows(base, a)
	b := extendWith(baseDS, "b", rowsB)
	pb, okB := AppendRows(base, b)
	close(stop)
	readers.Wait()
	if !okA || !okB {
		t.Fatal("AppendRows fell back")
	}

	if !sharesRanks(pa, base) {
		t.Error("first patch with no new distinct value copied the rank table")
	}
	if sharesRanks(pb, base) {
		t.Error("second patch of the same base extended its rank table in place too")
	}
	if a.Obj(0) != baseDS.Obj(0) || b.Obj(0) == baseDS.Obj(0) {
		t.Error("want the first extension to share the base's rows and the second to copy them")
	}
	assertSameAsScratch(t, "first extension", pa)
	assertSameAsScratch(t, "second extension", pb)
	if a.Len() != baseDS.Len()+len(rowsA) || b.Len() != baseDS.Len()+len(rowsB) || a.Obj(baseDS.Len()).ID != "a0" || b.Obj(baseDS.Len()).ID != "b0" {
		t.Fatal("the two extensions see each other's rows")
	}
	if base.ds.Len() != baseDS.Len() || !slices.Equal(base.ranks, baseRanks) {
		t.Fatal("patching changed the base index")
	}
	assertSameAsScratch(t, "base", base)
}

// TestAppendRowsRankTableSharedOrRewritten: the table is extended in place
// exactly when no dimension gained a distinct value; when one did — every
// batch, on continuous-valued data — old ranks shift and the table is
// rewritten, to the ranks a from-scratch sort assigns.
func TestAppendRowsRankTableSharedOrRewritten(t *testing.T) {
	const dim = 3
	opts := Options{Codec: Concise, Bins: []int{4}, Adaptive: true}
	for _, tc := range []struct {
		name   string
		grid   int // 0: continuous values
		shared bool
	}{{"grid", 7, true}, {"continuous", 0, false}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(33))
			batch := func(n int) [][]float64 {
				if tc.grid > 0 {
					return randIncomplete(rng, n, dim, tc.grid, 0.2)
				}
				rows := make([][]float64, n)
				for i := range rows {
					rows[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				}
				return rows
			}
			ds := data.New(dim)
			for i, vals := range batch(200) {
				ds.MustAppend(fmt.Sprintf("o%d", i), vals)
			}
			ix := Build(ds, opts)
			for step := 0; step < 6; step++ {
				next := extendWith(ds, fmt.Sprintf("s%d-", step), batch(5))
				px, ok := AppendRows(ix, next)
				if !ok {
					t.Fatalf("step %d: AppendRows fell back", step)
				}
				assertSameAsScratch(t, fmt.Sprintf("step %d", step), px)
				// Step 0 patches a freshly built table, which has no capacity
				// to spare; from then on sharing is the rule under test.
				if step > 0 && sharesRanks(px, ix) != tc.shared {
					t.Fatalf("step %d: rank table shared = %v, want %v", step, !tc.shared, tc.shared)
				}
				ds, ix = next, px
			}
		})
	}
}
