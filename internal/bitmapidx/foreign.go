package bitmapidx

import (
	"repro/internal/bitvec"
	"repro/internal/data"
)

// Foreign-candidate access: the cursor operations keyed not by an object
// index but by raw (values, mask) pairs, for candidates that are not rows of
// the indexed dataset. This is the shard-side primitive of scatter-gather
// query execution — a coordinator holds the full dataset, each shard indexes
// only its row range, and a candidate from anywhere is scored against a
// shard by mapping its values into the shard's own value domains:
//
//	Qi = { p : p[i] ≥ v or missing }  = col[bucket(RankGE(v))]
//	Pi ⊆ { p : p[i] > v or missing }  = col[qb+1] (bin-granular; the Q−P rim
//	                                    is refined by value, exactly as IBIG
//	                                    refines in-set candidates)
//
// A value beyond the shard's domain maps to the all-missing column (rank Ci);
// a value below it to column 0. Unlike the in-set paths nothing is
// subtracted for the candidate itself: if the candidate happens to be a row
// of the shard, classification handles it (all common dimensions equal ⇒
// not dominated), so |∩Qi| here is a valid — if one looser — upper bound.

// buildRefsForeign maps a foreign candidate's observed values to column refs
// in the cursor's reusable buffer. For each observed dimension d with value
// v: the Q-column is the bucket of the smallest distinct value ≥ v, and the
// P-column the one past it — except that an unbinned index with v absent
// from the domain uses the Q-column for P too ({p > v} = {p ≥ distinct[r]}
// exactly), and a v beyond every observed value uses the final
// ("missing in this dimension") column for both.
func (c *Cursor) buildRefsForeign(values []float64, mask uint64) []qref {
	ix := c.ix
	refs := c.qrefs[:0]
	for d := range ix.dims {
		if mask&(1<<uint(d)) == 0 {
			continue // missing: Qi = Pi = S, the all-ones column
		}
		v := values[d]
		st := &ix.stats[d]
		buckets := int32(len(ix.dims[d].cols) - 1)
		r := st.RankGE(v)
		if r >= len(st.Distinct) {
			refs = append(refs, qref{d: int32(d), qb: buckets, pb: buckets})
			continue
		}
		qb := int32(ix.dims[d].rankToBucket[r])
		pb := qb + 1
		if !ix.binned && st.Distinct[r] != v {
			// Value-granular index, v between two domain values: strictly
			// greater and greater-or-equal coincide.
			pb = qb
		}
		refs = append(refs, qref{d: int32(d), qb: qb, pb: pb})
	}
	c.qrefs = refs
	return refs
}

// QPForeign computes Q = ∩Qi and P = ∩Pi for a foreign candidate given by
// (values, mask). Unlike QP, no self-bit is cleared from Q — the candidate
// is not (necessarily) a row of this index's dataset. The returned vectors
// are owned by the cursor and valid until the next QP/QPForeign call.
func (c *Cursor) QPForeign(values []float64, mask uint64) (q, p *bitvec.Vector) {
	refs := c.buildRefsForeign(values, mask)
	if c.ix.codec == Raw {
		return c.qpDense(refs, -1)
	}
	return c.qpDispatch(refs, -1)
}

// QPObject is QPForeign over a data.Object.
func (c *Cursor) QPObject(o *data.Object) (q, p *bitvec.Vector) {
	return c.QPForeign(o.Values, o.Mask)
}

// ForeignCountAbove computes |∩Qi| for a foreign candidate with the
// IntersectCountAbove contract: when the count exceeds tau it returns
// (count, true); otherwise (0, false), bailing out of the walk as soon as
// the remainder cannot lift the count past tau. This is the shard-local
// Heuristic 2 bound under a pushed-down threshold: |∩Qi| bounds the number
// of shard rows the candidate can dominate, and the coordinator prunes a
// candidate whose per-shard bounds sum to at most the global τ.
func (c *Cursor) ForeignCountAbove(values []float64, mask uint64, tau int) (int, bool) {
	refs := c.buildRefsForeign(values, mask)
	if c.ix.codec == Raw {
		if len(refs) == 0 {
			n := c.ix.ds.Len()
			return n, n > tau
		}
		return bitvec.IntersectCountAbove(tau, c.qCols(refs)...)
	}
	return c.intersectQAbove(refs, tau)
}
