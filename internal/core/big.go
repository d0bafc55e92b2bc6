package core

import (
	"context"

	"repro/internal/bitmapidx"
	"repro/internal/data"
	"repro/internal/obs"
)

// bigState is the scorer of the BIG and IBIG algorithms: one worker's bitmap
// index cursor. A struct of one pointer, so the scorer interface holds it
// without allocating.
type bigState struct{ cursor *bitmapidx.Cursor }

// newBigState returns one worker's scorer over ix.
func newBigState(ix *bitmapidx.Index) bigState { return bigState{ix.NewCursor()} }

// Release hands the cursor back to its index (loop calls it when the run
// ends).
func (s bigState) Release() { s.cursor.Release() }

// ScoreResult tells the caller how a scorer ended.
type ScoreResult int

const (
	Scored   ScoreResult = iota // exact score computed
	PrunedH2                    // dropped by bitmap pruning (Heuristic 2)
	PrunedH3                    // dropped by partial score pruning (Heuristic 3)
)

// score computes score(o) through the bitmap index — Algorithm 3
// (BIG-Score) and Algorithm 5 (IBIG-Score) in one bitwise form (the kernel
// and its proof are in bitmapidx/score.go):
//
//	score(o) = |∩Qᵢ| − |E| − nonD(W)
//
// |∩Qᵢ| is the Heuristic 2 count. E — the rows equal to o or missing wherever
// o is observed: o itself, its duplicates, all of F(o) — is a second popcount
// over the same columns. W is what is left of the paper's Q−P refinement:
// the rows that tie a bucket of o holding more than one value, classified one
// by one against the rank table (the tagT counting of lines 7-8). Over a
// value-granular index, or a binned one fine enough where o sits, W is empty
// and no row is visited; BIG and IBIG differ only in that.
//
// Heuristic 2 (bitmap pruning) drops o unless |∩Qᵢ| − 1 − |F(o)| exceeds τ.
// The paper prunes on |∩Qᵢ| − 1; F(o), the rows sharing no observed dimension
// with o, sits in every Qᵢ by §4.3's all-ones rule and o dominates none of it,
// so the bound net of it is as sound and is the one a shard applies to a
// foreign candidate (ForeignScorer.BoundAbove). A candidate it drops scores at
// most τ, so its missing offer changes no answer.
//
// Heuristic 3 (Algorithm 5, lines 11-12) is the kernel's limit: once the
// members of ∩Qᵢ known not to be dominated exceed |∩Qᵢ| − τ − 1 the score
// cannot beat τ and the walk stops. It can only fire on a walked row.
//
// The comparisons reported are the walked rows of W.
func (s bigState) Score(o int, tau int) (int, ScoreResult, int64) {
	cnt, limit := -1, bitmapidx.NoLimit
	if tau >= 0 {
		f := s.cursor.IncomparableRows(s.cursor.Index().Dataset().Obj(o).Mask)
		maxBit, above := s.cursor.MaxBitScoreAbove(o, tau+f)
		if !above {
			return 0, PrunedH2, 0 // Heuristic 2
		}
		cnt, limit = maxBit+1, maxBit-tau
	}
	score, walked, ok := s.cursor.Score(o, cnt, limit)
	if !ok {
		return 0, PrunedH3, int64(walked)
	}
	return score, Scored, int64(walked)
}

// BIG is the bitmap index guided algorithm (Algorithm 4): the UBB main loop
// with Heuristic 1 on the MaxScore queue, plus per-object bitmap pruning
// (Heuristic 2) and bitwise score computation through the bitmap index.
// The index must be value-granular (unbinned); IBIG handles binned indexes.
func BIG(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue) (Result, Stats) {
	return Run(AlgBIG, ds, k, &Pre{Queue: queue, Bitmap: ix})
}

// IBIG is the improved BIG algorithm (§4.4): identical framework, but over
// a binned (and typically compressed) bitmap index, with the Q−P value
// refinement and partial-score pruning (Heuristic 3) of Algorithm 5.
func IBIG(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue) (Result, Stats) {
	return Run(AlgIBIG, ds, k, &Pre{Queue: queue, Binned: ix})
}

// bitmapRun runs BIG or IBIG (a) over ix through the candidate loop, one
// cursor per worker. The two share the scorer; BIG only insists that its
// index is value-granular.
func bitmapRun(ctx context.Context, a Algorithm, ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue, workers int, sp *obs.Span) (Result, Stats, error) {
	if a == AlgBIG && ix.Binned() {
		panic("core: BIG requires an unbinned index; use IBIG")
	}
	return loop(ctx, ds, k, queue, queue.MaxScore, workers, func() Scorer { return newBigState(ix) }, sp)
}
