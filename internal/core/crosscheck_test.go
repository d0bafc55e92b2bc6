package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/paperdata"
)

// randomConfigs spans the regimes the algorithms branch on: dense/sparse
// missingness, tiny/large domains, correlated/independent values.
func randomConfigs(seedBase int64) []gen.Config {
	return []gen.Config{
		{N: 300, Dim: 3, Cardinality: 8, MissingRate: 0.0, Dist: gen.IND, Seed: seedBase},
		{N: 300, Dim: 4, Cardinality: 8, MissingRate: 0.3, Dist: gen.IND, Seed: seedBase + 1},
		{N: 250, Dim: 5, Cardinality: 4, MissingRate: 0.6, Dist: gen.IND, Seed: seedBase + 2},
		{N: 300, Dim: 4, Cardinality: 100, MissingRate: 0.2, Dist: gen.AC, Seed: seedBase + 3},
		{N: 200, Dim: 6, Cardinality: 12, MissingRate: 0.45, Dist: gen.AC, Seed: seedBase + 4},
		{N: 64, Dim: 2, Cardinality: 3, MissingRate: 0.4, Dist: gen.IND, Seed: seedBase + 5},
	}
}

// TestAllAlgorithmsAgree: the five algorithms must return identical top-k
// score multisets on every configuration (answers may differ on rank-k
// score ties, per the paper's arbitrary tie-breaking).
func TestAllAlgorithmsAgree(t *testing.T) {
	for _, cfg := range randomConfigs(100) {
		ds := gen.Synthetic(cfg)
		pre := core.Preprocess(ds, nil)
		for _, k := range []int{1, 2, 5, 16} {
			want, _ := core.Naive(ds, k)
			wantScores := want.Scores()
			for _, alg := range []core.Algorithm{core.AlgESB, core.AlgUBB, core.AlgBIG, core.AlgIBIG} {
				got, _ := core.Run(alg, ds, k, pre)
				gs := got.Scores()
				if len(gs) != len(wantScores) {
					t.Fatalf("%v cfg=%+v k=%d: %d answers, want %d", alg, cfg, k, len(gs), len(wantScores))
				}
				for i := range gs {
					if gs[i] != wantScores[i] {
						t.Fatalf("%v cfg=%+v k=%d: scores %v, want %v", alg, cfg, k, gs, wantScores)
					}
				}
			}
		}
	}
}

// TestReportedScoresAreExact: every (object, score) pair any algorithm
// returns must equal the brute-force score of that object.
func TestReportedScoresAreExact(t *testing.T) {
	for _, cfg := range randomConfigs(200)[:3] {
		ds := gen.Synthetic(cfg)
		pre := core.Preprocess(ds, nil)
		for _, alg := range core.Algorithms {
			res, _ := core.Run(alg, ds, 8, pre)
			for _, it := range res.Items {
				if want := core.Score(ds, it.Index); it.Score != want {
					t.Fatalf("%v reported score(%s)=%d, brute force %d", alg, it.ID, it.Score, want)
				}
			}
		}
	}
}

// TestKLargerThanDataset: k >= N degenerates to ranking everything.
func TestKLargerThanDataset(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 40, Dim: 3, Cardinality: 5, MissingRate: 0.3, Dist: gen.IND, Seed: 7})
	pre := core.Preprocess(ds, nil)
	for _, alg := range core.Algorithms {
		res, _ := core.Run(alg, ds, 100, pre)
		if len(res.Items) != ds.Len() {
			t.Fatalf("%v returned %d items, want %d", alg, len(res.Items), ds.Len())
		}
	}
}

// TestKZeroOrNegative returns an empty result for every algorithm.
func TestKZeroOrNegative(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 20, Dim: 2, Cardinality: 4, MissingRate: 0.2, Dist: gen.IND, Seed: 8})
	for _, alg := range core.Algorithms {
		for _, k := range []int{0, -3} {
			res, st := core.Run(alg, ds, k, nil)
			if len(res.Items) != 0 || st.Scored != 0 {
				t.Fatalf("%v k=%d returned work: %+v", alg, k, st)
			}
		}
	}
}

// TestResultSortedDescending: results come ordered by score.
func TestResultSortedDescending(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 500, Dim: 4, Cardinality: 30, MissingRate: 0.25, Dist: gen.AC, Seed: 9})
	pre := core.Preprocess(ds, nil)
	for _, alg := range core.Algorithms {
		res, _ := core.Run(alg, ds, 12, pre)
		if !sort.SliceIsSorted(res.Items, func(i, j int) bool {
			return res.Items[i].Score > res.Items[j].Score ||
				(res.Items[i].Score == res.Items[j].Score && res.Items[i].Index < res.Items[j].Index)
		}) {
			t.Fatalf("%v result not sorted: %v", alg, res.Scores())
		}
	}
}

// TestLemma3Random: MaxBitScore <= MaxScore under the unbinned index;
// both must upper-bound the exact score.
func TestLemma3Random(t *testing.T) {
	for _, cfg := range randomConfigs(300)[:4] {
		ds := gen.Synthetic(cfg)
		ix := bitmapidx.Build(ds, bitmapidx.Options{})
		cur := ix.NewCursor()
		q := core.BuildMaxScoreQueue(ds)
		for i := 0; i < ds.Len(); i += 7 {
			mbs := cur.MaxBitScore(i)
			ms := q.MaxScore[i]
			s := core.Score(ds, i)
			if mbs > ms {
				t.Fatalf("cfg=%+v obj %d: MaxBitScore %d > MaxScore %d (Lemma 3)", cfg, i, mbs, ms)
			}
			if s > mbs {
				t.Fatalf("cfg=%+v obj %d: score %d > MaxBitScore %d (Heuristic 2 bound)", cfg, i, s, mbs)
			}
		}
	}
}

// TestMaxScoreIsUpperBound under binned indexes too: the binned
// MaxBitScore may exceed MaxScore (Lemma 3 void), but must still bound the
// exact score.
func TestBinnedBitScoreStillBounds(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 400, Dim: 4, Cardinality: 64, MissingRate: 0.2, Dist: gen.IND, Seed: 11})
	ix := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{5}})
	cur := ix.NewCursor()
	for i := 0; i < ds.Len(); i += 5 {
		if s := core.Score(ds, i); s > cur.MaxBitScore(i) {
			t.Fatalf("obj %d: score %d > binned MaxBitScore %d", i, s, cur.MaxBitScore(i))
		}
	}
}

// TestIBIGBinSweep: IBIG must return correct answers for every bin count,
// from 1 bin per dimension up to value granularity.
func TestIBIGBinSweep(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 300, Dim: 4, Cardinality: 32, MissingRate: 0.25, Dist: gen.AC, Seed: 12})
	queue := core.BuildMaxScoreQueue(ds)
	want, _ := core.Naive(ds, 8)
	for _, bins := range []int{1, 2, 3, 5, 8, 16, 32, 64} {
		ix := bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{bins}})
		got, _ := core.IBIG(ds, 8, ix, queue)
		w, g := want.Scores(), got.Scores()
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("bins=%d: scores %v, want %v", bins, g, w)
			}
		}
	}
}

// TestIBIGWithPerDimensionBins mirrors the paper's Zillow setup where every
// dimension gets its own bin count.
func TestIBIGWithPerDimensionBins(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 300, Dim: 5, Cardinality: 40, MissingRate: 0.15, Dist: gen.IND, Seed: 13})
	ix := bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{2, 5, 11, 23, 40}})
	want, _ := core.Naive(ds, 6)
	got, _ := core.IBIG(ds, 6, ix, nil)
	w, g := want.Scores(), got.Scores()
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("scores %v, want %v", g, w)
		}
	}
}

// TestDominanceProperties: irreflexive and asymmetric on random objects
// (antisymmetry holds pairwise even though transitivity does not).
func TestDominanceProperties(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 300, Dim: 4, Cardinality: 6, MissingRate: 0.4, Dist: gen.IND, Seed: 14})
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 2000; trial++ {
		i, j := rng.Intn(ds.Len()), rng.Intn(ds.Len())
		oi, oj := ds.Obj(i), ds.Obj(j)
		if i == j && core.Dominates(oi, oj) {
			t.Fatal("reflexive dominance")
		}
		if core.Dominates(oi, oj) && core.Dominates(oj, oi) {
			t.Fatalf("symmetric dominance between %d and %d", i, j)
		}
	}
}

// TestHeuristicCountsAccount: candidates = scored + H2-pruned + H3-pruned,
// and candidates + H1-pruned = N for the queue-driven algorithms.
func TestHeuristicCountsAccount(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 600, Dim: 4, Cardinality: 16, MissingRate: 0.3, Dist: gen.IND, Seed: 16})
	pre := core.Preprocess(ds, nil)
	for _, alg := range []core.Algorithm{core.AlgUBB, core.AlgBIG, core.AlgIBIG} {
		_, st := core.Run(alg, ds, 10, pre)
		if st.Candidates+st.PrunedH1 != ds.Len() {
			t.Fatalf("%v: candidates %d + H1 %d != N %d", alg, st.Candidates, st.PrunedH1, ds.Len())
		}
		if st.Scored+st.PrunedH2+st.PrunedH3 != st.Candidates {
			t.Fatalf("%v: scored %d + H2 %d + H3 %d != candidates %d",
				alg, st.Scored, st.PrunedH2, st.PrunedH3, st.Candidates)
		}
	}
}

// TestMovieLensStyleAgreement runs the extreme-sparsity regime (95%
// missing, tiny domain) where bucket structure degenerates.
func TestMovieLensStyleAgreement(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 400, Dim: 12, Cardinality: 5, MissingRate: 0.9, Dist: gen.IND, Seed: 17})
	pre := core.Preprocess(ds, nil)
	want, _ := core.Naive(ds, 8)
	for _, alg := range []core.Algorithm{core.AlgESB, core.AlgUBB, core.AlgBIG, core.AlgIBIG} {
		got, _ := core.Run(alg, ds, 8, pre)
		w, g := want.Scores(), got.Scores()
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%v: scores %v, want %v", alg, g, w)
			}
		}
	}
}

// TestSerialHeuristicCountsPinned pins the serial BIG/IBIG pruning statistics
// on the golden sample and the crosscheck configurations. The rows have moved
// twice, on purpose, and CHANGES.md lists old → new both times. PR 26 (IBIG
// only): the score became |∩Q| − |E| − nonD(W) over ξᵢ = min(cᵢ, 2 · Eq. (8))
// bins, Heuristic 3 fires only on a candidate with rows to walk, so where every
// bucket of a candidate is exact its share moved to Scored (cfg1, cfg2 and
// cfg5 read as BIG does), and it cuts at score ≤ τ where it used to cut at
// score < τ (cfg0). PR 27 (BIG and IBIG): Heuristic 2 prunes on
// |∩Q| − 1 − |F(o)|, so wherever rows share no dimension with a candidate —
// every config but the complete sample and cfg0 — Scored (and with it what
// Heuristic 3 is left to cut) fell and PrunedH2 rose; Candidates and PrunedH1
// are the queue's and moved in no row. Comparisons is not pinned.
func TestSerialHeuristicCountsPinned(t *testing.T) {
	pins := []struct {
		data                                          string
		alg                                           core.Algorithm
		k, candidates, scored, prunedH1, prunedH2, h3 int
	}{
		{"sample", core.AlgBIG, 2, 2, 2, 18, 0, 0},
		{"sample", core.AlgIBIG, 2, 2, 2, 18, 0, 0},
		{"cfg0", core.AlgBIG, 1, 1, 1, 299, 0, 0},
		{"cfg0", core.AlgIBIG, 1, 1, 1, 299, 0, 0},
		{"cfg0", core.AlgBIG, 2, 4, 4, 296, 0, 0},
		{"cfg0", core.AlgIBIG, 2, 4, 3, 296, 0, 1},
		{"cfg0", core.AlgBIG, 5, 7, 7, 293, 0, 0},
		{"cfg0", core.AlgIBIG, 5, 7, 6, 293, 0, 1},
		{"cfg0", core.AlgBIG, 16, 33, 22, 267, 11, 0},
		{"cfg0", core.AlgIBIG, 16, 33, 20, 267, 0, 13},
		{"cfg1", core.AlgBIG, 1, 14, 3, 286, 11, 0},
		{"cfg1", core.AlgIBIG, 1, 14, 3, 286, 11, 0},
		{"cfg1", core.AlgBIG, 2, 17, 7, 283, 10, 0},
		{"cfg1", core.AlgIBIG, 2, 17, 7, 283, 10, 0},
		{"cfg1", core.AlgBIG, 5, 49, 14, 251, 35, 0},
		{"cfg1", core.AlgIBIG, 5, 49, 14, 251, 35, 0},
		{"cfg1", core.AlgBIG, 16, 87, 29, 213, 58, 0},
		{"cfg1", core.AlgIBIG, 16, 87, 29, 213, 58, 0},
		{"cfg2", core.AlgBIG, 1, 138, 6, 112, 132, 0},
		{"cfg2", core.AlgIBIG, 1, 138, 6, 112, 132, 0},
		{"cfg2", core.AlgBIG, 2, 250, 21, 0, 229, 0},
		{"cfg2", core.AlgIBIG, 2, 250, 21, 0, 229, 0},
		{"cfg2", core.AlgBIG, 5, 250, 40, 0, 210, 0},
		{"cfg2", core.AlgIBIG, 5, 250, 40, 0, 210, 0},
		{"cfg2", core.AlgBIG, 16, 250, 77, 0, 173, 0},
		{"cfg2", core.AlgIBIG, 16, 250, 77, 0, 173, 0},
		{"cfg3", core.AlgBIG, 1, 6, 2, 294, 4, 0},
		{"cfg3", core.AlgIBIG, 1, 6, 2, 294, 2, 2},
		{"cfg3", core.AlgBIG, 2, 6, 2, 294, 4, 0},
		{"cfg3", core.AlgIBIG, 2, 6, 2, 294, 2, 2},
		{"cfg3", core.AlgBIG, 5, 13, 6, 287, 7, 0},
		{"cfg3", core.AlgIBIG, 5, 13, 6, 287, 4, 3},
		{"cfg3", core.AlgBIG, 16, 103, 27, 197, 76, 0},
		{"cfg3", core.AlgIBIG, 16, 103, 27, 197, 64, 12},
		{"cfg4", core.AlgBIG, 1, 12, 1, 188, 11, 0},
		{"cfg4", core.AlgIBIG, 1, 12, 1, 188, 11, 0},
		{"cfg4", core.AlgBIG, 2, 39, 6, 161, 33, 0},
		{"cfg4", core.AlgIBIG, 2, 39, 5, 161, 33, 1},
		{"cfg4", core.AlgBIG, 5, 72, 11, 128, 61, 0},
		{"cfg4", core.AlgIBIG, 5, 72, 11, 128, 60, 1},
		{"cfg4", core.AlgBIG, 16, 175, 24, 25, 151, 0},
		{"cfg4", core.AlgIBIG, 16, 175, 21, 25, 150, 4},
		{"cfg5", core.AlgBIG, 1, 35, 20, 29, 15, 0},
		{"cfg5", core.AlgIBIG, 1, 35, 20, 29, 15, 0},
		{"cfg5", core.AlgBIG, 2, 41, 23, 23, 18, 0},
		{"cfg5", core.AlgIBIG, 2, 41, 23, 23, 18, 0},
		{"cfg5", core.AlgBIG, 5, 53, 25, 11, 28, 0},
		{"cfg5", core.AlgIBIG, 5, 53, 25, 11, 28, 0},
		{"cfg5", core.AlgBIG, 16, 64, 44, 0, 20, 0},
		{"cfg5", core.AlgIBIG, 16, 64, 44, 0, 20, 0},
	}
	type fixture struct {
		ds  *data.Dataset
		pre *core.Pre
	}
	sample := paperdata.Sample()
	fixtures := map[string]fixture{"sample": {sample, core.Preprocess(sample, []int{2, 2, 3, 3})}}
	for i, cfg := range randomConfigs(100) {
		ds := gen.Synthetic(cfg)
		fixtures[fmt.Sprintf("cfg%d", i)] = fixture{ds, core.Preprocess(ds, nil)}
	}
	for _, p := range pins {
		fx := fixtures[p.data]
		_, st := core.Run(p.alg, fx.ds, p.k, fx.pre)
		got := [5]int{st.Candidates, st.Scored, st.PrunedH1, st.PrunedH2, st.PrunedH3}
		want := [5]int{p.candidates, p.scored, p.prunedH1, p.prunedH2, p.h3}
		if got != want {
			t.Errorf("%s %v k=%d: candidates/scored/H1/H2/H3 = %v, pinned %v", p.data, p.alg, p.k, got, want)
		}
	}
}
