package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/data"
	"repro/internal/gen"
)

// kernelDataset generates cfg's rows and appends one dimension no row
// observes, so a candidate observed only there shares no dimension with any
// row — the all-of-S-is-F(o) corner of |G| = |P| − |F|.
func kernelDataset(cfg gen.Config) *data.Dataset {
	src := gen.Synthetic(cfg)
	ds := data.New(cfg.Dim + 1)
	row := make([]float64, cfg.Dim+1)
	for i := 0; i < src.Len(); i++ {
		o := src.Obj(i)
		copy(row, o.Values)
		row[cfg.Dim] = math.NaN()
		ds.MustAppend(o.ID, row)
	}
	return ds
}

// kernelIndexes are the index flavours the scorers run over: BIG's
// value-granular Raw index, the serving path's binned adaptive CONCISE index
// and pure CONCISE with per-dimension bin counts.
func kernelIndexes(dim, bins int) map[string]bitmapidx.Options {
	perDim := make([]int, dim)
	for d := range perDim {
		perDim[d] = 1 + (bins+2*d)%7
	}
	return map[string]bitmapidx.Options{
		"raw":      {Codec: bitmapidx.Raw},
		"adaptive": {Codec: bitmapidx.Concise, Bins: []int{bins}, Adaptive: true},
		"per-dim":  {Codec: bitmapidx.Concise, Bins: perDim},
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

// checkScoreKernel holds the bitwise scorers to the definition over one
// dataset and index flavour: bigScore without a threshold equals Score for
// every object; with a live τ it returns that exact score or prunes an object
// whose score cannot beat τ; ForeignScorer.Score equals ForeignScore on every
// slice of a three-way row partition, for candidates that are shard rows,
// rows of other shards, off-domain values and the no-common-dimension
// candidate — under a budget it returns that score or stops with the slice's
// true |nonD| above the budget — and the partials of an in-set object sum to
// its global score.
func checkScoreKernel(t testing.TB, ds *data.Dataset, opts bitmapidx.Options) {
	t.Helper()
	n := ds.Len()
	ix := bitmapidx.Build(ds, opts)
	state := newBigState(ds, ix)
	var st Stats
	for o := 0; o < n; o++ {
		want := Score(ds, o)
		got, how := state.bigScore(o, -1, false, &st)
		if how != scored || got != want {
			t.Fatalf("object %d: bigScore(τ=-1) = (%d, %v), Score = %d", o, got, how, want)
		}
		for _, tau := range []int{0, want - 1, want, want + 1, n / 4} {
			if tau < 0 {
				continue
			}
			got, how := state.bigScore(o, tau, true, &st)
			if how == scored && got != want {
				t.Fatalf("object %d τ=%d: bigScore = %d, Score = %d", o, tau, got, want)
			}
			if how != scored && want > tau {
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
		fs := NewForeignScorer(slice, bitmapidx.Build(slice, opts))
		check := func(what string, cand *data.Object) int {
			want := ForeignScore(slice, cand)
			// The slice's true |nonD|, and the identity the exact-phase budget
			// rests on: score = (|Q| − |F|) − |nonD| with the bound net of F.
			q, p := fs.cursor.QPObject(cand)
			_, nonD, _ := rimScore(slice, cand, q, p, NoBudget)
			if bound, _ := fs.BoundAbove(cand, -1); bound-nonD != want {
				t.Fatalf("shard %d, %s: bound %d − nonD %d != ForeignScore %d", s, what, bound, nonD, want)
			}
			for _, budget := range []int{-1, 0, 1, nonD - 1, nonD, NoBudget} {
				got, ok := fs.Score(cand, budget)
				if ok && got != want {
					t.Fatalf("shard %d, %s, budget %d: ForeignScorer.Score = %d, ForeignScore = %d", s, what, budget, got, want)
				}
				if !ok && nonD <= budget {
					t.Fatalf("shard %d, %s: pruned on budget %d with nonD %d", s, what, budget, nonD)
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
}

// TestScoreKernelMatchesDefinition runs checkScoreKernel over low-cardinality
// data — value ties and fully duplicate rows — at missing rates where F(o) is
// empty (σ = 0), occasional and common (σ = 0.6: many rows share no
// dimension).
func TestScoreKernelMatchesDefinition(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.IND, gen.AC} {
		for i, sigma := range []float64{0, 0.2, 0.6} {
			cfg := gen.Config{N: 240, Dim: 4, Cardinality: 5, MissingRate: sigma, Dist: dist, Seed: int64(40 + i)}
			ds := kernelDataset(cfg)
			if sigma == 0.6 {
				ix := bitmapidx.Build(ds, bitmapidx.Options{})
				withF := 0
				for o := 0; o < ds.Len(); o++ {
					if ix.IncomparableRows(ds.Obj(o).Mask) > 0 {
						withF++
					}
				}
				if withF == 0 {
					t.Fatalf("%v σ=%v: no object has a non-empty F(o)", dist, sigma)
				}
			}
			for name, opts := range kernelIndexes(ds.Dim(), 3) {
				t.Run(fmt.Sprintf("%v/σ=%v/%s", dist, sigma, name), func(t *testing.T) {
					checkScoreKernel(t, ds, opts)
				})
			}
		}
	}
}

// FuzzScoreKernel drives checkScoreKernel from fuzzed generator parameters.
func FuzzScoreKernel(f *testing.F) {
	// seed, n, dim, cardinality, σ in tenths, bins — the cases of
	// TestScoreKernelMatchesDefinition plus the degenerate shapes.
	for i, sigma := range []uint8{0, 2, 6} {
		f.Add(int64(40+i), uint16(239), uint8(4), uint8(5), sigma, uint8(2), false)
		f.Add(int64(40+i), uint16(239), uint8(4), uint8(5), sigma, uint8(2), true)
	}
	f.Add(int64(1), uint16(1), uint8(1), uint8(1), uint8(0), uint8(1), false)
	f.Add(int64(2), uint16(400), uint8(6), uint8(2), uint8(9), uint8(40), true)
	f.Add(int64(3), uint16(65), uint8(2), uint8(200), uint8(3), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dim, card, sigma, bins uint8, ac bool) {
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
		ds := kernelDataset(cfg)
		for _, opts := range kernelIndexes(ds.Dim(), 1+int(bins)) {
			checkScoreKernel(t, ds, opts)
		}
	})
}

// BenchmarkScoreKernel times one candidate through the bitwise scorers at
// serving scale (the benchmark's query-heavy shape: IND 100000×5, cardinality
// 100, σ = 0.2, Eq. (8) bins, adaptive CONCISE): the top-of-queue object
// scored in-set without a threshold — the widest Q the query sees — and the
// same object scored as a foreign candidate against the first of three
// shards. Both must stay allocation-free; the CI bench gate pins that.
func BenchmarkScoreKernel(b *testing.B) {
	ds := gen.Synthetic(gen.Config{N: 100_000, Dim: 5, Cardinality: 100, MissingRate: 0.2, Dist: gen.IND, Seed: 1})
	build := func(ds *data.Dataset) *bitmapidx.Index {
		bins := []int{OptimalBins(ds.Len(), ds.MissingRate())}
		return bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: bins, Adaptive: true})
	}
	top := int(BuildMaxScoreQueue(ds).Order[0])
	b.Run("inset", func(b *testing.B) {
		state := newBigState(ds, build(ds))
		var st Stats
		b.ReportAllocs()
		for b.Loop() {
			state.bigScore(top, -1, false, &st)
		}
	})
	b.Run("foreign", func(b *testing.B) {
		slice := ds.Slice(0, ds.Len()/3)
		fs := NewForeignScorer(slice, build(slice))
		cand := ds.Obj(top)
		b.ReportAllocs()
		for b.Loop() {
			fs.Score(cand, NoBudget)
		}
	})
}
