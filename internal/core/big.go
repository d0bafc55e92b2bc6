package core

import (
	"math"
	"math/bits"

	"repro/internal/bitmapidx"
	"repro/internal/bitvec"
	"repro/internal/btree"
	"repro/internal/data"
	"repro/internal/obs"
)

// bigState carries the shared machinery of the BIG and IBIG algorithms: the
// bitmap index cursor and the |F(o)| memo behind the bitwise |G(o)| count.
type bigState struct {
	ds     *data.Dataset
	ix     *bitmapidx.Index
	cursor *bitmapidx.Cursor
	f      fCounts
	// B+-tree refinement state (RefineBTree only).
	trees []*btree.Tree
	tags  *epochTags
}

func newBigState(ds *data.Dataset, ix *bitmapidx.Index) *bigState {
	return &bigState{ds: ds, ix: ix, cursor: ix.NewCursor(), f: newFCounts(ix)}
}

// fCounts memoizes |F(o)| — the number of indexed rows sharing no observed
// dimension with o — per distinct mask, over the per-mask row counts the
// index computed once for its epoch (there are far fewer distinct masks than
// objects). Not safe for concurrent use; each scorer state owns one.
type fCounts struct {
	ix   *bitmapidx.Index
	memo map[uint64]int
}

func newFCounts(ix *bitmapidx.Index) fCounts {
	return fCounts{ix: ix, memo: make(map[uint64]int)}
}

func (f fCounts) of(mask uint64) int {
	c, ok := f.memo[mask]
	if !ok {
		c = f.ix.IncomparableRows(mask)
		f.memo[mask] = c
	}
	return c
}

// scoreResult tells the caller how bigScore ended.
type scoreResult int

const (
	scored   scoreResult = iota // exact score computed
	prunedH2                    // dropped by bitmap pruning (Heuristic 2)
	prunedH3                    // dropped by partial score pruning (Heuristic 3)
)

// NoBudget disables rimScore's Heuristic 3 cut: no rim can exceed it.
const NoBudget = math.MaxInt

// rimScore classifies the Q−P rim of a candidate against the rows of ds — the
// one place BIG-Score, IBIG-Score and the shard-side foreign scorer compare
// values (the paper's tagT counting, lines 7-8 of Algorithms 3 and 5). Only
// the rim words Q[w] &^ P[w] are expanded bit by bit; a rim member p is
// always comparable to the candidate (every incomparable row sits in P) and
//
//	p[i] < cand[i] on a common dim   → nonD (possible only under binning:
//	                                    same bin, smaller value)
//	all common dims equal            → nonD (this also drops cand itself when
//	                                    it is a row of ds)
//	otherwise                        → dominated, a member of L(cand)
//
// It returns |L| and |nonD|. Heuristic 3 (Algorithm 5, lines 11-12): as soon
// as |nonD| exceeds nonDBudget the walk stops and ok is false; pass NoBudget
// to always classify the whole rim.
func rimScore(ds *data.Dataset, cand *data.Object, q, p *bitvec.Vector, nonDBudget int) (dominated, nonD int, ok bool) {
	pw := p.Words()
	for wi, w := range q.Words() {
		w &^= pw[wi]
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			po := ds.Obj(base + bits.TrailingZeros64(w))
			common := cand.Mask & po.Mask
			// worse: p ≥ cand on every common dimension and > on at least one.
			worse := false
			for m := common; m != 0; m &= m - 1 {
				d := bits.TrailingZeros64(m)
				if po.Values[d] < cand.Values[d] {
					worse = false
					break
				}
				if po.Values[d] > cand.Values[d] {
					worse = true
				}
			}
			if worse {
				dominated++
				continue
			}
			nonD++
			if nonD > nonDBudget {
				return dominated, nonD, false
			}
		}
	}
	return dominated, nonD, true
}

// bigScore computes score(o) through the bitmap index — Algorithm 3
// (BIG-Score) when the index is value-granular and Algorithm 5 (IBIG-Score)
// when it is binned; the two differ only in whether Q−P candidates need
// value refinement and whether Heuristic 3 applies.
//
// The paper materializes G(o) = P − F(o) as a set; only its size matters.
// Every object incomparable to o sits in P (a row missing on dimension i is
// set in every column of i, so it passes each of o's observed dimensions),
// hence F(o) ⊆ P ⊆ Q, every comparable member of P is strictly worse than o
// on all common dimensions, and
//
//	score(o) = |G(o)| + |L(o)| = |P| − |F(o)| + |L(o)|
//
// with |P| a popcount, |F(o)| a per-mask constant of the epoch, and L(o) the
// dominated part of the Q−P rim (rimScore). Members of G(o) are counted,
// never visited.
func (s *bigState) bigScore(o int, tau int, full bool, st *Stats) (int, scoreResult) {
	var maxBit int
	if s.ix.CodecUsed() != bitmapidx.Raw {
		// Compressed index: evaluate the Heuristic 2 bound entirely over the
		// (cached) columns first; the dense Q/P vectors are only
		// materialized for objects that survive the filter. With a live τ
		// the threshold-aware cascade bails out mid-walk on pruned objects.
		if full {
			mb, above := s.cursor.MaxBitScoreAbove(o, tau)
			if !above {
				return 0, prunedH2
			}
			maxBit = mb
		} else {
			maxBit = s.cursor.MaxBitScore(o)
		}
	}
	q, p := s.cursor.QP(o)
	if s.ix.CodecUsed() == bitmapidx.Raw {
		maxBit = q.Count()
		if full && maxBit <= tau {
			return 0, prunedH2 // Heuristic 2
		}
	}
	obj := s.ds.Obj(o)
	f := s.f.of(obj.Mask)
	// Heuristic 3: once |nonD| exceeds |Q| − |F(o)| − τ the final score
	// cannot beat τ. The paper enables it for the binned index, where Q−P
	// refinement is the dominant cost.
	budget := NoBudget
	if full && s.ix.Binned() {
		budget = maxBit - f - tau
	}
	l, nonD, ok := rimScore(s.ds, obj, q, p, budget)
	st.Comparisons += int64(l + nonD)
	if !ok {
		return 0, prunedH3
	}
	return p.Count() - f + l, scored
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
	state := newBigState(ds, ix)
	if refine == RefineBTree {
		state.trees = trees
		state.tags = newEpochTags(ds.Len())
	}
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
