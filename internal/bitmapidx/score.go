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

// tie says what the tie set Tᵢ of one candidate dimension holds.
type tie uint8

const (
	tieNone  tie = iota // nothing: no row's value can land between Qᵢ and Pᵢ, which coincide
	tieExact            // the rows equal to the candidate on the dimension
	tieWalk             // rows of several values: each is classified by rank
)

// qref locates one observed dimension of a candidate in the index: the
// Q-column bucket (the P-column is the next one), the kind of its tie set and
// the candidate's value as a doubled rank — 2r when it is the dimension's
// r-th value, 2r−1 when it falls between the r−1-th and the r-th — so that a
// row of rank s compares to it as 2s does.
type qref struct {
	d, qb int32
	tie   tie
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
func (c *Cursor) ScoreForeign(values []float64, mask uint64, limit int) (score, walked int, ok bool) {
	return c.tieScore(c.buildRefsForeign(values, mask), -1, limit)
}

func (c *Cursor) tieScore(refs []qref, cnt, limit int) (score, walked int, ok bool) {
	ix := c.ix
	if cnt < 0 {
		cnt, _ = c.intersectQAbove(refs, noTau)
	}
	walk := false
	for _, r := range refs {
		walk = walk || r.tie == tieWalk
	}

	// E as a cascade over the observed dimensions, one fused pass each; with
	// an inexact bucket among them, ∩Qᵢ and ∪Tᵢ of the inexact ones too.
	var t repTally
	e, qa, w := c.p, c.q, c.w
	e.SetAll()
	if walk {
		qa.SetAll()
		w.Reset()
	}
	for _, r := range refs {
		d := int(r.d)
		last := int32(len(ix.dims[d].cols) - 1)
		m := c.column(d, last, &c.scratchM[d], &t)
		var q, p *bitvec.Vector // q nil: bucket 0, the identity of AND
		switch r.qb {
		case 0:
		case last:
			q = m
		default:
			q = c.column(d, r.qb, &c.scratchQ[d], &t)
		}
		if r.tie != tieNone {
			p = m
			if r.qb+1 < last {
				p = c.column(d, r.qb+1, &c.scratchP[d], &t)
			}
		}
		if r.tie == tieExact {
			e.AndTie(q, p, m)
		} else {
			e.And(m)
		}
		if walk {
			if q != nil {
				qa.And(q)
			}
			if r.tie == tieWalk {
				w.OrAndNot(q, p)
			}
		}
	}
	ix.flushTally(&t)
	nd := e.Count()
	if !walk {
		return cnt - nd, 0, true
	}
	if nd > limit {
		return 0, 0, false
	}

	// The walk. A row is dominated when it is at or above the candidate on
	// every common dimension and above on one.
	dim := ix.ds.Dim()
	qaw := qa.Words()
	for wi, wk := range w.Words() {
		for wk &= qaw[wi]; wk != 0; wk &= wk - 1 {
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

// column returns column (d, b) as a dense vector (Cursor.dense), tallying how
// it was served: the stored vector of a dense column, else the shared
// decompressed-column cache (or *scratch when the cache is over budget).
func (c *Cursor) column(d int, b int32, scratch **bitvec.Vector, t *repTally) *bitvec.Vector {
	if c.ix.dims[d].cols[b].kind == kindDense {
		t.dense++
	} else {
		t.compressed++
		t.fallback++
	}
	return c.dense(d, int(b), scratch)
}
