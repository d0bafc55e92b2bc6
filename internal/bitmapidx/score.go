package bitmapidx

import (
	"math"
	"math/bits"

	"repro/internal/bitvec"
)

// The scoring kernel. For a candidate o observed on dimension i in bucket b,
// three columns of i describe every row's relation to o there:
//
//	Qᵢ = col[b]     rows at or above o's bucket, or missing on i
//	Pᵢ = col[b+1]   rows above o's bucket, or missing on i
//	Mᵢ = col[last]  rows missing on i
//	Tᵢ = Qᵢ − Pᵢ    rows that tie o's bucket
//
// A bucket is exact when one value maps to it; tying an exact bucket is
// equalling o on i. With
//
//	E = ∩_{i exact} (Tᵢ ∪ Mᵢ) ∩ ∩_{i inexact} Mᵢ
//	W = ∩ᵢ Qᵢ ∩ ∪_{i inexact} Tᵢ
//
// the rows o dominates are counted without visiting them:
//
//	score(o) = |∩ᵢ Qᵢ| − |E| − nonD(W)
//
// A row of E equals o or is missing wherever o is observed, so o does not
// dominate it (o itself, its duplicates and every row sharing no dimension
// with o are there). A row of ∩Qᵢ outside E and W is above o's bucket or
// missing on every inexact dimension, at or above o's value or missing on
// every exact one, and — not being in E — strictly above on one: dominated.
// Only W, the rows that share a bucket with o without the bucket saying how
// their values compare, is walked, against the rank table; E and W are
// disjoint (a row of W is observed on an inexact dimension, a row of E is
// not), so nothing is counted twice. When every bucket of o is exact — a
// value-granular index, or a binned one fine enough where o sits — W is empty
// and the score is two popcounts.

// qref locates one observed dimension of a candidate in the index: the
// Q-column bucket (the P-column is the next one), the kind of its tie set Tᵢ
// and the candidate's value as a doubled rank — 2r when it is the dimension's
// r-th value, 2r−1 when it falls between the r−1-th and the r-th — so that a
// row of rank s compares to it as 2s does. Tᵢ holds nothing (bitvec.TieNone:
// no row's value can land between Qᵢ and Pᵢ, which coincide), the rows equal
// to the candidate on the dimension (bitvec.TieExact), or rows of several
// values, each classified by rank (bitvec.TieWalk).
type qref struct {
	d, qb int32
	tie   bitvec.Tie
	key   int32
}

// NoLimit disables the kernel's early stop: no count exceeds it.
const NoLimit = math.MaxInt

// Score runs the kernel for the in-set object obj given cnt = |∩Qᵢ| (obj
// included; negative when the caller has not counted it) and returns
// score(obj) = cnt − nd, nd = |E| + nonD(W) being the members of ∩Qᵢ obj does
// not dominate, and how many rows of W were walked. A candidate with rows to
// walk is given up, ok false, as soon as nd exceeds limit (Heuristic 3: with
// limit = cnt − τ − 1 the score can no longer beat τ); one with nothing to
// walk always comes back exact.
func (c *Cursor) Score(obj, cnt, limit int) (score, walked int, ok bool) {
	return c.tieScore(c.buildRefs(obj), cnt, limit)
}

// ScoreForeign is Score for a candidate given by (values, mask) that need not
// be a row of the index; if it is one, it lands in E or W like any duplicate.
// cnt is |∩Qᵢ| when the caller knows it — a shard's bounds-phase answer plus
// |F| (ForeignCountAbove on this index) — and negative to count it here.
func (c *Cursor) ScoreForeign(values []float64, mask uint64, cnt, limit int) (score, walked int, ok bool) {
	return c.tieScore(c.buildRefsForeign(values, mask), cnt, limit)
}

func (c *Cursor) tieScore(refs []qref, cnt, limit int) (score, walked int, ok bool) {
	ix := c.ix
	if cnt < 0 {
		cnt, _ = c.intersectQAbove(refs, noTau)
	}

	// E — and, with an inexact bucket among the dimensions, W ∩ ∩Qᵢ into c.w —
	// in one blocked pass over every dimension's Q-, P- and missing columns.
	terms := c.terms[:0]
	walk := false
	for _, r := range refs {
		cols := ix.dims[r.d].cols
		last := int32(len(cols) - 1)
		term := bitvec.TieTerm{M: cols[last], Tie: r.tie}
		if r.qb != 0 { // Q nil: bucket 0, the identity of AND
			term.Q = cols[r.qb]
		}
		if r.tie != bitvec.TieNone {
			term.P = cols[min(r.qb+1, last)]
		}
		terms = append(terms, term)
		walk = walk || r.tie == bitvec.TieWalk
	}
	c.terms = terms
	nd := c.blocks.TieCount(c.w, terms)
	if !walk {
		return cnt - nd, 0, true
	}
	if nd > limit {
		return 0, 0, false
	}

	// The walk. A row is dominated when it is at or above the candidate on
	// every common dimension and above on one.
	dim := ix.ds.Dim()
	for wi, wk := range c.w.Words() {
		for ; wk != 0; wk &= wk - 1 {
			row := ix.ranks[(wi*64+bits.TrailingZeros64(wk))*dim:]
			walked++
			above := false
			for _, r := range refs {
				s := row[r.d]
				if s < 0 {
					continue
				}
				if 2*s < r.key {
					above = false
					break
				}
				above = above || 2*s > r.key
			}
			if !above {
				if nd++; nd > limit {
					return 0, walked, false
				}
			}
		}
	}
	return cnt - nd, walked, true
}
