package bitmapidx

import "repro/internal/bitvec"

// Foreign-candidate access: the cursor operations keyed not by an object
// index but by raw (values, mask) pairs, for candidates that are not rows of
// the indexed dataset. This is the shard-side primitive of scatter-gather
// query execution — a coordinator holds the full dataset, each shard indexes
// only its row range, and a candidate from anywhere is scored against a
// shard by mapping its values into the shard's own value domains:
//
//	Qi = { p : p[i] ≥ v or missing }  = col[bucket(RankGE(v))]
//	Pi ⊆ { p : p[i] > v or missing }  = col[qb+1] (bin-granular; what ties
//	                                    the bucket is resolved by the scoring
//	                                    kernel, exactly as for in-set
//	                                    candidates — see score.go)
//
// A value beyond the shard's domain maps to the all-missing column (rank Ci);
// a value below it to column 0. Unlike the in-set paths nothing is
// subtracted for the candidate itself: if the candidate happens to be a row
// of the shard, classification handles it (all common dimensions equal ⇒
// not dominated), so |∩Qi| here is a valid — if one looser — upper bound.

// buildRefsForeign maps a foreign candidate's observed values to column refs
// in the cursor's reusable buffer. For each observed dimension d with value
// v the Q-column is the bucket of the smallest distinct value ≥ v. When v is
// that value the dimension reads as an in-set object's would. When v is
// absent from the domain no row equals it: below the first value of its
// bucket — always, on a value-granular index — {p > v} = {p ≥ that value}
// exactly, P coincides with Q and nothing ties; past it, the bucket's smaller
// values are told from the larger by rank. A v beyond every observed value
// uses the final ("missing in this dimension") column for both.
func (c *Cursor) buildRefsForeign(values []float64, mask uint64) []qref {
	ix := c.ix
	refs := c.qrefs[:0]
	for d := range ix.dims {
		if mask&(1<<uint(d)) == 0 {
			continue // missing: Qi = Pi = S, the all-ones column
		}
		v := values[d]
		st := &ix.stats[d]
		di := &ix.dims[d]
		r := st.RankGE(v)
		ref := qref{d: int32(d), qb: int32(len(di.cols) - 1), tie: bitvec.TieNone, key: int32(2*r - 1)}
		if r < len(st.Distinct) {
			b := di.rankToBucket[r]
			ref.qb = int32(b)
			switch {
			case st.Distinct[r] == v:
				ref.key++
				ref.tie = bitvec.TieWalk
				if di.exact[b] {
					ref.tie = bitvec.TieExact
				}
			case r > 0 && di.rankToBucket[r-1] == b:
				ref.tie = bitvec.TieWalk
			}
		}
		refs = append(refs, ref)
	}
	c.qrefs = refs
	return refs
}

// ForeignCountAbove computes |∩Qi| for a foreign candidate with the
// IntersectCountAbove contract: when the count exceeds tau it returns
// (count, true); otherwise (0, false), bailing out of the walk as soon as
// the remainder cannot lift the count past tau. This is the shard-local
// Heuristic 2 bound under a pushed-down threshold: |∩Qi| bounds the number
// of shard rows the candidate can dominate, and the coordinator prunes a
// candidate whose per-shard bounds sum to at most the global τ.
func (c *Cursor) ForeignCountAbove(values []float64, mask uint64, tau int) (int, bool) {
	return c.intersectQAbove(c.buildRefsForeign(values, mask), tau)
}
