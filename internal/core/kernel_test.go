package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/data"
	"repro/internal/gen"
)

// kernelDataset generates cfg's rows for checkScoreKernel.
func kernelDataset(cfg gen.Config, tail int) *data.Dataset {
	return blindDim(gen.Synthetic(cfg), tail)
}

// blindDim copies src with one more dimension that no row observes, so a
// candidate observed only there shares no dimension with any row — the
// all-of-S-is-F(o) corner. Every other one of the last tail rows is moved
// half a step off src's (integer) domain: published onto an index of the
// rows before them (servedIndex), those bring distinct values the index has
// not seen, and the rest values it has.
func blindDim(src *data.Dataset, tail int) *data.Dataset {
	ds := data.New(src.Dim() + 1)
	row := make([]float64, src.Dim()+1)
	for i := 0; i < src.Len(); i++ {
		o := src.Obj(i)
		copy(row, o.Values)
		if back := src.Len() - i; back <= tail && back%2 == 1 {
			for d := range o.Values {
				row[d] += 0.5
			}
		}
		row[src.Dim()] = math.NaN()
		ds.MustAppend(o.ID, row)
	}
	return ds
}

// kernelIndexes are the index layouts the scorers run over: BIG's
// value-granular index, one bin count for every dimension as on the serving
// path (named for the adaptive index that once held it) and per-dimension bin
// counts.
func kernelIndexes(dim, bins int) map[string]bitmapidx.Options {
	perDim := make([]int, dim)
	for d := range perDim {
		perDim[d] = 1 + (bins+2*d)%7
	}
	return map[string]bitmapidx.Options{
		"raw":      {},
		"adaptive": {Bins: []int{bins}},
		"per-dim":  {Bins: perDim},
	}
}

// shifted returns o with every observed value moved by delta: ±0.5 lands
// between (or just outside) the integer domain values, ±1e6 far below and
// beyond the domain.
func shifted(o *data.Object, delta float64) *data.Object {
	c := &data.Object{Mask: o.Mask, Values: make([]float64, len(o.Values))}
	for d, v := range o.Values {
		c.Values[d] = v + delta
	}
	return c
}

// servedIndex is the index checkScoreKernel scores through: a build over ds,
// or — with tail > 0 on a binned layout — a build over all but the last tail
// rows with those published onto it by AppendRows, so that rows arrive in
// buckets a build would have laid out differently.
func servedIndex(ds *data.Dataset, opts bitmapidx.Options, tail int) *bitmapidx.Index {
	if base := ds.Len() - tail; tail > 0 && base > 0 && opts.Bins != nil {
		if ix, ok := bitmapidx.AppendRows(bitmapidx.Build(ds.Slice(0, base), opts), ds); ok {
			return ix
		}
	}
	return bitmapidx.Build(ds, opts)
}

// checkScoreKernel holds the bitwise scorers to the definition over one
// dataset and index flavour (built, or patched by its last tail rows):
// bigState.score without a threshold equals Score for every object, whose
// Heuristic 2 bound net of the rows sharing no dimension with it is no lower;
// with a live τ it returns that exact score or prunes an object whose score
// cannot beat τ;
// ForeignScorer.Score equals ForeignScore on every slice of a three-way row
// partition, for candidates that are shard rows, rows of other shards,
// off-domain values and the no-common-dimension candidate — under a budget it
// returns that score or stops with the slice's true |nonD| above the budget —
// and the partials of an in-set object sum to its global score. It returns
// how many rows the unpruned in-set scores walked.
func checkScoreKernel(t testing.TB, ds *data.Dataset, opts bitmapidx.Options, tail int) (walked int64) {
	t.Helper()
	n := ds.Len()
	ix := servedIndex(ds, opts, tail)
	state := newBigState(ix)
	for o := 0; o < n; o++ {
		want := Score(ds, o)
		got, how, w := state.Score(o, -1)
		walked += w
		if how != Scored || got != want {
			t.Fatalf("object %d: score(τ=-1) = (%d, %v), Score = %d", o, got, how, want)
		}
		f := 0
		for p := 0; p < n; p++ {
			if !ds.Obj(o).ComparableWith(ds.Obj(p)) {
				f++
			}
		}
		if got := state.cursor.IncomparableRows(ds.Obj(o).Mask); got != f {
			t.Fatalf("object %d: IncomparableRows = %d, %d rows share no dimension with it", o, got, f)
		}
		if bound := state.cursor.MaxBitScore(o) - f; bound < want {
			t.Fatalf("object %d: Heuristic 2 bound |∩Q| − 1 − |F| = %d below Score %d", o, bound, want)
		}
		for _, tau := range []int{0, want - 1, want, want + 1, n / 4} {
			if tau < 0 {
				continue
			}
			got, how, _ := state.Score(o, tau)
			if how == Scored && got != want {
				t.Fatalf("object %d τ=%d: score = %d, Score = %d", o, tau, got, want)
			}
			if how != Scored && want > tau {
				t.Fatalf("object %d τ=%d: pruned (%v) with score %d > τ", o, tau, how, want)
			}
		}
	}

	const shards = 3
	blind := &data.Object{Mask: 1 << uint(ds.Dim()-1), Values: make([]float64, ds.Dim())}
	sums := make([]int, n)
	for s := 0; s < shards; s++ {
		slice := ds.Slice(s*n/shards, (s+1)*n/shards)
		if slice.Len() == 0 {
			continue
		}
		fs := NewForeignScorer(slice, servedIndex(slice, opts, min(tail, slice.Len()/2)))
		check := func(what string, cand *data.Object) int {
			want := ForeignScore(slice, cand)
			// The slice's |nonD| by the identity the exact-phase budget rests
			// on: score = (|Q| − |F|) − |nonD| with the bound net of F.
			bound, _ := fs.BoundAbove(cand, -1)
			nonD := bound - want
			if nonD < 0 {
				t.Fatalf("shard %d, %s: bound %d below ForeignScore %d", s, what, bound, want)
			}
			for _, budget := range []int{-1, 0, 1, nonD - 1, nonD, NoBudget} {
				got, ok := fs.Score(cand, NoBound, budget)
				if ok && got != want {
					t.Fatalf("shard %d, %s, budget %d: ForeignScorer.Score = %d, ForeignScore = %d", s, what, budget, got, want)
				}
				if !ok && nonD <= budget {
					t.Fatalf("shard %d, %s: pruned on budget %d with nonD %d", s, what, budget, nonD)
				}
				// The exact phase's form: the bounds phase's answer supplied,
				// |∩Q| not counted again. It must be the recount exactly.
				if bgot, bok := fs.Score(cand, bound, budget); bgot != got || bok != ok {
					t.Fatalf("shard %d, %s, budget %d: Score with bound %d = (%d, %v), recounted (%d, %v)", s, what, budget, bound, bgot, bok, got, ok)
				}
			}
			return want
		}
		for o := 0; o < n; o++ {
			obj := ds.Obj(o)
			sums[o] += check(fmt.Sprintf("row %d", o), obj)
			for _, delta := range []float64{-0.5, 0.5, -1e6, 1e6} {
				check(fmt.Sprintf("row %d shifted %+g", o, delta), shifted(obj, delta))
			}
		}
		if got := check("no common dimension", blind); got != 0 {
			t.Fatalf("shard %d: candidate sharing no dimension scored %d", s, got)
		}
	}
	for o, sum := range sums {
		if want := Score(ds, o); sum != want {
			t.Fatalf("object %d: foreign partials sum to %d, Score = %d", o, sum, want)
		}
	}
	return walked
}

// TestScoreKernelMatchesDefinition runs checkScoreKernel over low-cardinality
// data — value ties and fully duplicate rows — at missing rates where F(o) is
// empty (σ = 0), occasional and common (σ = 0.6: many rows share no
// dimension).
func TestScoreKernelMatchesDefinition(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.IND, gen.AC} {
		for i, sigma := range []float64{0, 0.2, 0.6} {
			cfg := gen.Config{N: 240, Dim: 4, Cardinality: 5, MissingRate: sigma, Dist: dist, Seed: int64(40 + i)}
			ds := kernelDataset(cfg, 0)
			if sigma == 0.6 {
				c := bitmapidx.Build(ds, bitmapidx.Options{}).NewCursor()
				withF := 0
				for o := 0; o < ds.Len(); o++ {
					if c.IncomparableRows(ds.Obj(o).Mask) > 0 {
						withF++
					}
				}
				if withF == 0 {
					t.Fatalf("%v σ=%v: no object has a non-empty F(o)", dist, sigma)
				}
			}
			for name, opts := range kernelIndexes(ds.Dim(), 3) {
				t.Run(fmt.Sprintf("%v/σ=%v/%s", dist, sigma, name), func(t *testing.T) {
					checkScoreKernel(t, ds, opts, 0)
				})
			}
		}
	}
}

// TestScoreKernelCases holds score(o) = |∩Q| − |E| − nonD(W) to the
// definition on the shapes its proof turns on, each through checkScoreKernel
// (every row in-set with and without τ; every row, its off-domain shifts —
// absent from, below and beyond a shard's domain — and the no-common-dimension
// candidate as foreign candidates of three shards), and the served answers —
// serial, two workers (the race job runs this) — to Naive's.
func TestScoreKernelCases(t *testing.T) {
	rows := func(dim int, rows ...[]float64) *data.Dataset {
		ds := data.New(dim)
		for i, r := range rows {
			ds.MustAppend(fmt.Sprintf("r%d", i), r)
		}
		return blindDim(ds, 0)
	}
	repeat := func(times int, rs ...[]float64) (out [][]float64) {
		for i := 0; i < times; i++ {
			out = append(out, rs...)
		}
		return out
	}
	na := math.NaN()
	// Twelve values per dimension in ascending rows, so a coarse layout's last
	// bin catches several of them and the top of every dimension lives there.
	ladderCfg := gen.Config{N: 300, Dim: 3, Cardinality: 12, MissingRate: 0.2, Dist: gen.IND, Seed: 5}
	ladder := kernelDataset(ladderCfg, 0)
	for _, tc := range []struct {
		name string
		ds   *data.Dataset
		opts bitmapidx.Options
		tail int
		// walks: whether some unpruned in-set score has rows to walk.
		walks bool
	}{
		{"all rows equal (o ∈ E)", rows(2, repeat(20, []float64{3, 7})...), bitmapidx.Options{Bins: []int{4}}, 0, false},
		{"duplicates, value-granular", rows(3, repeat(8, []float64{1, 2, 3}, []float64{1, 2, na}, []float64{2, 1, 3}, []float64{na, na, 5})...), bitmapidx.Options{}, 0, false},
		{"duplicates in one bucket (o ∈ W)", rows(3, repeat(8, []float64{1, 2, 3}, []float64{1, 2, na}, []float64{2, 1, 3}, []float64{na, na, 5})...), bitmapidx.Options{Bins: []int{1}}, 0, true},
		{"one observed dimension", rows(3, repeat(6, []float64{1, na, na}, []float64{2, na, na}, []float64{na, 4, na}, []float64{na, 4, na}, []float64{na, na, 9}, []float64{5, 6, 7})...), bitmapidx.Options{Bins: []int{2}}, 0, true},
		{"catch-all last bin", ladder, bitmapidx.Options{Bins: []int{3}}, 0, true},
		{"exact and inexact buckets on one candidate", ladder, bitmapidx.Options{Bins: []int{12, 1, 7, 1}}, 0, true},
		{"every bucket exact under a binned layout", ladder, bitmapidx.Options{Bins: []int{12}}, 0, false},
		{"publish: new values join exact buckets", kernelDataset(ladderCfg, 40), bitmapidx.Options{Bins: []int{12}}, 40, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if walked := checkScoreKernel(t, tc.ds, tc.opts, tc.tail); (walked > 0) != tc.walks {
				t.Errorf("in-set scores walked %d rows, want walks = %v", walked, tc.walks)
			}
			pre := &Pre{Queue: BuildMaxScoreQueue(tc.ds)}
			alg := AlgIBIG
			if tc.opts.Bins == nil {
				alg, pre.Bitmap = AlgBIG, servedIndex(tc.ds, tc.opts, tc.tail)
			} else {
				pre.Binned = servedIndex(tc.ds, tc.opts, tc.tail)
			}
			for _, k := range []int{1, 5, 16} {
				want, _ := Naive(tc.ds, k)
				for _, workers := range []int{1, 2} {
					got, _ := RunWorkers(alg, tc.ds, k, pre, workers)
					if !slices.Equal(got.Items, want.Items) {
						t.Fatalf("k=%d workers=%d: items %v, Naive %v", k, workers, got.Items, want.Items)
					}
				}
			}
		})
	}
}

// FuzzScoreKernel drives checkScoreKernel from fuzzed generator parameters.
// The committed corpus (testdata/fuzz/FuzzScoreKernel) adds the shapes of
// TestScoreKernelCases: a single value everywhere, one dimension, a layout of
// as many bins as values with new values published into it.
func FuzzScoreKernel(f *testing.F) {
	// seed, n, dim, cardinality, σ in tenths, bins, tail — the cases of
	// TestScoreKernelMatchesDefinition plus the degenerate shapes.
	for i, sigma := range []uint8{0, 2, 6} {
		f.Add(int64(40+i), uint16(239), uint8(4), uint8(5), sigma, uint8(2), uint8(0), false)
		f.Add(int64(40+i), uint16(239), uint8(4), uint8(5), sigma, uint8(2), uint8(9), true)
	}
	f.Add(int64(1), uint16(1), uint8(1), uint8(1), uint8(0), uint8(1), uint8(0), false)
	f.Add(int64(2), uint16(400), uint8(6), uint8(2), uint8(9), uint8(40), uint8(200), true)
	f.Add(int64(3), uint16(65), uint8(2), uint8(200), uint8(3), uint8(0), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dim, card, sigma, bins, tail uint8, ac bool) {
		cfg := gen.Config{
			N:           1 + int(n)%400,
			Dim:         1 + int(dim)%6,
			Cardinality: 1 + int(card),
			MissingRate: float64(sigma%10) / 10,
			Dist:        gen.IND,
			Seed:        seed,
		}
		if ac {
			cfg.Dist = gen.AC
		}
		ds := kernelDataset(cfg, int(tail))
		for _, opts := range kernelIndexes(ds.Dim(), 1+int(bins)) {
			checkScoreKernel(t, ds, opts, int(tail))
		}
	})
}

// TestScoreKernelAllocs: a warmed cursor scores without allocating — in-set
// with and without τ, and as a foreign candidate with and without its bound —
// whether every bucket of the candidate is exact (popcounts only) or some rows
// are walked.
func TestScoreKernelAllocs(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 6000, Dim: 5, Cardinality: 60, MissingRate: 0.2, Dist: gen.IND, Seed: 1})
	top := int(BuildMaxScoreQueue(ds).Order[0])
	for _, tc := range []struct {
		name  string
		bins  int
		walks bool
	}{
		{"exact buckets", 60, false},
		{"walked", 6, true},
	} {
		ix := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{tc.bins}})
		state := newBigState(ix)
		fs := NewForeignScorer(ds, ix)
		cand := ds.Obj(top)
		score, _, walked := state.Score(top, -1)
		if (walked > 0) != tc.walks {
			t.Fatalf("%s: walked %d rows, want walks = %v", tc.name, walked, tc.walks)
		}
		bound, _ := fs.BoundAbove(cand, -1)
		runs := map[string]func(){
			"in-set":             func() { state.Score(top, -1) },
			"in-set, live τ":     func() { state.Score(top, score/2) },
			"foreign":            func() { fs.Score(cand, NoBound, NoBudget) },
			"foreign, its bound": func() { fs.Score(cand, bound, NoBudget) },
		}
		for what, run := range runs {
			run() // warm: scratch, the |F| memo
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("%s, %s: %v allocs per score, want 0", tc.name, what, allocs)
			}
		}
	}
}

// BenchmarkScoreKernel times one candidate through the bitwise scorers at
// serving scale (the benchmark's query-heavy shape: IND 100000×5, cardinality
// 100, σ = 0.2, the serving index as BuildServingIndex lays it out): the
// top-of-queue object scored in-set without a threshold — every bucket it
// sits in is exact, so two popcounts — and the same object scored as a
// foreign candidate against a third of the rows under the 48 bins that third
// would take for itself (what a %shard file written before shard.NewLocal took
// the dataset's layout holds), which leaves rows to walk. Both must stay
// allocation-free; the CI bench gate and TestScoreKernelAllocs pin that.
func BenchmarkScoreKernel(b *testing.B) {
	ds := gen.Synthetic(gen.Config{N: 100_000, Dim: 5, Cardinality: 100, MissingRate: 0.2, Dist: gen.IND, Seed: 1})
	build := func(ds *data.Dataset) *bitmapidx.Index { return BuildServingIndex(ds.SortDims(), nil) }
	top := int(BuildMaxScoreQueue(ds).Order[0])
	b.Run("inset", func(b *testing.B) {
		state := newBigState(build(ds))
		b.ReportAllocs()
		for b.Loop() {
			state.Score(top, -1)
		}
	})
	b.Run("foreign", func(b *testing.B) {
		slice := ds.Slice(0, ds.Len()/3)
		fs := NewForeignScorer(slice, build(slice))
		cand := ds.Obj(top)
		b.ReportAllocs()
		for b.Loop() {
			fs.Score(cand, NoBound, NoBudget)
		}
	})
}
