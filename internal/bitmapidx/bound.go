package bitmapidx

// Standing-query bounds. A standing top-k subscription re-evaluates only
// when a published delta *could* change the answer; these two bounds make
// that check cheap. Both are conservative (never under-count), so a
// skip decision based on them is sound.

// StandingEntryBound returns Heuristic 2's upper bound on the dominance
// score of obj, |∩Qi| − 1 − |F(obj)|: the plain count takes in every row
// missing all of obj's observed dimensions — such rows pass every
// range-encoded column yet are incomparable with obj and can never be
// dominated by it (see IncomparableRows). For an appended row p the bound says
// whether p can possibly enter a standing answer whose k-th score is τ:
// StandingEntryBound(p) < τ means it cannot.
func (c *Cursor) StandingEntryBound(obj int) int {
	return c.MaxBitScore(obj) - c.IncomparableRows(c.ix.ds.Obj(obj).Mask)
}

// DominatorCeil returns an upper bound on the number of objects that could
// dominate obj: comparable objects whose value rank is ≤ obj's on every
// shared observed dimension (Definition 1 without the strictness clause, so
// ties over-count — which is the safe direction). A zero ceiling for an
// appended row p proves no existing object's score changed: scores only
// count dominated objects, so appending p perturbs exactly the objects
// dominating it.
//
// The scan reads the precomputed rank table directly — value-rank granular,
// not bin granular, so a row below a dimension's previous minimum is
// dominated through that dimension by nobody even though it shares bin 0
// with other values. Cost is O(N) with a couple of word ops per object,
// comparable to a single column intersection.
func (ix *Index) DominatorCeil(obj int) int {
	pm := ix.ds.Obj(obj).Mask
	dim := ix.ds.Dim()
	pr := ix.ranks[obj*dim : (obj+1)*dim]
	count := 0
	n := ix.ds.Len()
	for q := 0; q < n; q++ {
		if q == obj {
			continue
		}
		m := ix.ds.Obj(q).Mask & pm
		if m == 0 {
			continue
		}
		qr := ix.ranks[q*dim : (q+1)*dim]
		ok := true
		for d := 0; m != 0; d, m = d+1, m>>1 {
			if m&1 == 0 {
				continue
			}
			if qr[d] > pr[d] {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}
