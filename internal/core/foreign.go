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
// pairwise comparison. No plan serves from it — shards serve IBIG alone,
// through ForeignScorer — so it is the oracle the shard tests hold partial
// scores to.
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
// candidates through the shard's binned index — the IBIG scatter-gather
// shard executor. Not safe for concurrent use (it owns a cursor); create one
// per goroutine, they share the index's read-only columns, and Release it
// when done so its cursor serves the next one.
type ForeignScorer struct {
	ds     *data.Dataset
	cursor *bitmapidx.Cursor
}

// NewForeignScorer returns a scorer over one shard's dataset and index (the
// index must be built over exactly ds).
func NewForeignScorer(ds *data.Dataset, ix *bitmapidx.Index) *ForeignScorer {
	return &ForeignScorer{ds: ds, cursor: ix.NewCursor()}
}

// Release hands the scorer's cursor back to its index; the scorer must not
// be used afterwards.
func (s *ForeignScorer) Release() { s.cursor.Release() }

// BoundAbove reports whether the candidate's shard-local Heuristic 2 bound
// |∩Qi| − |F(cand)| exceeds tau, returning the exact bound when it does. The
// bound is net of the shard rows sharing no dimension with cand — all of them
// sit in every Qi and none can be dominated — so it caps the partial score
// this shard can contribute, and Score's exact answer is this bound minus the
// shard's comparable rows of ∩Qi that cand does not dominate. A coordinator
// that knows the other shards' bounds (or just their row counts) prunes
// candidates whose bound sum cannot beat the global τ — the cross-shard form
// of bitmap pruning, with tau here being the pushed-down per-shard residual.
func (s *ForeignScorer) BoundAbove(cand *data.Object, tau int) (int, bool) {
	f := s.cursor.IncomparableRows(cand.Mask)
	tau = min(tau, s.ds.Len()) // no count beats either; keeps tau+f in range
	b, above := s.cursor.ForeignCountAbove(cand.Values, cand.Mask, tau+f)
	if !above {
		return 0, false
	}
	return b - f, true
}

// NoBudget disables Score's cross-shard Heuristic 3 cut.
const NoBudget = bitmapidx.NoLimit

// NoBound asks Score to count the candidate's |∩Qᵢ| itself.
const NoBound = -1

// Score computes the exact number of shard rows dominated by cand — the
// in-set scorer's kernel run over a foreign candidate:
// |∩Qᵢ| − |E| − nonD(W) (bitmapidx/score.go). F(cand) ⊆ E holds for a foreign
// candidate too — a shard row sharing no dimension with cand is missing on
// each of them — so |E| − |F| + nonD(W) is the shard's |nonD|: what separates
// the score from BoundAbove's net bound.
//
// bound is BoundAbove's exact answer for cand on this scorer's index — what a
// coordinator forwards from the bounds phase — so |∩Qᵢ| = bound + |F| is not
// counted again; NoBound counts it here. A capped BoundAbove answer is not a
// bound to pass (the coordinator never forwards one: a candidate with a capped
// shard has a bound sum of at most τ and is pruned).
//
// nonDBudget is the cross-shard form of Heuristic 3. A shard cannot prune on
// its partial score — the candidate's fate depends on the sum — but
// score = |Q| − |F| − |nonD| on every shard, so a coordinator holding the
// bound sum B = Σ(|Q_s| − |F_s|) knows the total is at most B − |nonD_s| for
// any one shard s: once this shard's own |nonD| exceeds B − τ the total is
// below τ and the walk stops with ok false. Pass NoBudget for the exact score
// unconditionally.
func (s *ForeignScorer) Score(cand *data.Object, bound, nonDBudget int) (score int, ok bool) {
	cnt, limit := -1, nonDBudget
	if bound >= 0 || limit != NoBudget {
		f := s.cursor.IncomparableRows(cand.Mask)
		if bound >= 0 {
			cnt = bound + f
		}
		if limit != NoBudget {
			limit += f
		}
	}
	score, _, ok = s.cursor.ScoreForeign(cand.Values, cand.Mask, cnt, limit)
	return score, ok
}
