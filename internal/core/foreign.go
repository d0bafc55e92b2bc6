package core

import (
	"repro/internal/bitmapidx"
	"repro/internal/data"
)

// Foreign scoring: exact partial scores of candidates that are not rows of
// the scored dataset. Dominance counts are additive across a row partition —
// score(o) over the full dataset equals the sum over shards of the number of
// shard rows o dominates — so a scatter-gather coordinator ships a
// candidate's (values, mask) to every shard, sums the partials, and gets the
// unsharded score exactly. Unlike the in-set scorers nothing excludes the
// candidate "itself": if the candidate happens to be a row of this shard,
// classification drops it naturally (no strict inequality against itself),
// so the same code serves home and remote shards alike.

// ForeignScore counts the rows of ds dominated by cand, by exhaustive
// pairwise comparison — the shard-side partial scorer of the Naive, ESB and
// UBB scatter-gather plans, which score exhaustively in the paper too.
func ForeignScore(ds *data.Dataset, cand *data.Object) int {
	score := 0
	for i := 0; i < ds.Len(); i++ {
		if cand.Dominates(ds.Obj(i)) {
			score++
		}
	}
	return score
}

// ForeignScorer computes shard-local partial scores and bounds of foreign
// candidates through the shard's bitmap index — the BIG/IBIG scatter-gather
// shard executor. Not safe for concurrent use (it owns a cursor); create one
// per goroutine, they share the index's decompressed-column cache.
type ForeignScorer struct {
	ds     *data.Dataset
	cursor *bitmapidx.Cursor
	f      fCounts
}

// NewForeignScorer returns a scorer over one shard's dataset and index (the
// index must be built over exactly ds).
func NewForeignScorer(ds *data.Dataset, ix *bitmapidx.Index) *ForeignScorer {
	return &ForeignScorer{ds: ds, cursor: ix.NewCursor(), f: newFCounts(ix)}
}

// BoundAbove reports whether the candidate's shard-local Heuristic 2 bound
// |∩Qi| exceeds tau, returning the exact bound when it does. The bound caps
// the partial score this shard can contribute; a coordinator that knows the
// other shards' bounds (or just their row counts) prunes candidates whose
// bound sum cannot beat the global τ — the cross-shard form of bitmap
// pruning, with tau here being the pushed-down per-shard residual.
func (s *ForeignScorer) BoundAbove(cand *data.Object, tau int) (int, bool) {
	return s.cursor.ForeignCountAbove(cand.Values, cand.Mask, tau)
}

// Score computes the exact number of shard rows dominated by cand — the
// IBIG-Score of Algorithm 5 run over a foreign candidate, in the same bitwise
// form as the in-set scorer: |P| − |F| rows are dominated without being
// visited (F ⊆ P holds for a foreign candidate too — a shard row sharing no
// dimension with cand is missing on each of them, so it is set in every
// column of those dimensions), and rimScore adds the dominated part of the
// Q−P rim. No Heuristic 3 applies: a shard cannot prune on a partial score,
// since the candidate's fate depends on the sum.
func (s *ForeignScorer) Score(cand *data.Object) int {
	q, p := s.cursor.QPObject(cand)
	l, _, _ := rimScore(s.ds, cand, q, p, noBudget)
	return p.Count() - s.f.of(cand.Mask) + l
}
