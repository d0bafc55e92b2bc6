package core

import (
	"repro/internal/bitmapidx"
	"repro/internal/btree"
	"repro/internal/data"
	"repro/internal/obs"
)

// bigState carries the shared machinery of the BIG and IBIG algorithms: the
// bitmap index cursor, plus what the B+-tree refinement reference needs.
type bigState struct {
	ds     *data.Dataset
	ix     *bitmapidx.Index
	cursor *bitmapidx.Cursor
	// B+-tree refinement state (RefineBTree only).
	trees []*btree.Tree
	tags  *epochTags
}

// newBigState returns one worker's scoring state; trees is read only under
// RefineBTree.
func newBigState(ds *data.Dataset, ix *bitmapidx.Index, refine Refinement, trees []*btree.Tree) *bigState {
	s := &bigState{ds: ds, ix: ix, cursor: ix.NewCursor()}
	if refine == RefineBTree {
		s.trees, s.tags = trees, newEpochTags(ds.Len())
	}
	return s
}

// scoreResult tells the caller how bigScore ended.
type scoreResult int

const (
	scored   scoreResult = iota // exact score computed
	prunedH2                    // dropped by bitmap pruning (Heuristic 2)
	prunedH3                    // dropped by partial score pruning (Heuristic 3)
)

// bigScore computes score(o) through the bitmap index — Algorithm 3
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
func (s *bigState) bigScore(o int, tau int, full bool, st *Stats) (int, scoreResult) {
	cnt, limit := -1, bitmapidx.NoLimit
	if full {
		f := s.cursor.IncomparableRows(s.ds.Obj(o).Mask)
		maxBit, above := s.cursor.MaxBitScoreAbove(o, tau+f)
		if !above {
			return 0, prunedH2 // Heuristic 2
		}
		cnt, limit = maxBit+1, maxBit-tau
	}
	score, walked, ok := s.cursor.Score(o, cnt, limit)
	st.Comparisons += int64(walked)
	if !ok {
		return 0, prunedH3
	}
	return score, scored
}

// BIG is the bitmap index guided algorithm (Algorithm 4): the UBB main loop
// with Heuristic 1 on the MaxScore queue, plus per-object bitmap pruning
// (Heuristic 2) and bitwise score computation through the bitmap index.
// The index must be value-granular (unbinned); IBIG handles binned indexes.
func BIG(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue) (Result, Stats) {
	if ix.Binned() {
		panic("core: BIG requires an unbinned index; use IBIG")
	}
	return bitmapRun(ds, k, ix, queue)
}

// IBIG is the improved BIG algorithm (§4.4): identical framework, but over
// a binned (and typically compressed) bitmap index, with the Q−P value
// refinement and partial-score pruning (Heuristic 3) of Algorithm 5.
func IBIG(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue) (Result, Stats) {
	return bitmapRun(ds, k, ix, queue)
}

func bitmapRun(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue) (Result, Stats) {
	return bitmapRunRefine(ds, k, ix, queue, RefineDirect, nil, nil)
}

// bitmapRunRefine is the serial BIG/IBIG main loop. sp, when non-nil,
// receives τ trajectory samples at WindowSize granularity — matching the
// parallel engine's sampling points, so explain output reads the same
// whichever path served the query. A nil sp costs one branch per candidate.
func bitmapRunRefine(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue, refine Refinement, trees []*btree.Tree, sp *obs.Span) (Result, Stats) {
	if queue == nil {
		queue = BuildMaxScoreQueue(ds)
	}
	var st Stats
	state := newBigState(ds, ix, refine, trees)
	sc := newCandidateHeap(k)
	pos := 0
	for p, idx := range queue.Order {
		pos = p
		tau := sc.tau()
		if sp != nil && pos%WindowSize == 0 {
			sp.SampleTau(pos, tau)
		}
		if tau >= 0 && queue.MaxScore[idx] <= tau {
			st.PrunedH1 += len(queue.Order) - pos // Heuristic 1: early stop
			break
		}
		st.Candidates++
		var score int
		var how scoreResult
		if refine == RefineBTree {
			score, how = state.bigScoreBTree(int(idx), tau, tau >= 0, &st)
		} else {
			score, how = state.bigScore(int(idx), tau, tau >= 0, &st)
		}
		switch how {
		case prunedH2:
			st.PrunedH2++
			continue
		case prunedH3:
			st.PrunedH3++
			continue
		}
		st.Scored++
		sc.offer(Item{Index: int(idx), ID: ds.Obj(int(idx)).ID, Score: score})
	}
	if sp != nil {
		sp.SampleTau(pos, sc.tau())
	}
	return sc.result(), st
}
