package bitmapidx

import (
	"slices"

	"repro/internal/bitvec"
	"repro/internal/data"
)

// AppendRows builds the index of next — old's dataset plus delta appended
// rows — by patching old's columns instead of rebuilding them, in
// O(compressed words + delta · columns) instead of O(N · columns).
//
// Precondition: next's first old.Dataset().Len() rows are exactly old's
// dataset (the caller constructs next by extending the indexed dataset; the
// serving layer additionally fingerprint-checks the result against the
// epoch it publishes). old is not modified and stays fully queryable, so
// in-flight readers of the previous epoch are unaffected. The one thing the
// two may share is the rank table: when the appended rows bring no new
// distinct value no old rank moves, and the patched index appends the new
// rows' ranks into the spare capacity behind old's — readers of old never
// look past their own rows. That capacity has a single claimant: the first
// patch of an index takes it, a second patch of the same index copies, so
// two successors of one base never see each other's tail.
//
// The patch keeps old's frozen bin layout: appended rows whose value already
// exists keep that value's bin, and a brand-new distinct value is assigned
// the bin of its predecessor old value (bin 0 below every old value, the
// last bin above). The resulting rank→bin map stays monotone non-decreasing,
// which is the only property the binned query algorithms rely on — the
// bin-granular [Qi]/[Pi] columns remain supersets/subsets of the true
// candidate sets and the IBIG refinement computes exact scores — so answers
// are identical to a from-scratch build even though the bin boundaries drift
// from the Eq. (3)–(4) equi-depth optimum; the equi-depth re-bin is deferred
// to the next full rebuild (reload). A column keeps old's physical
// representation, with one exception that keeps an adaptive index's rule —
// every column dense or fill-dominated — true across patches: a compressed
// column the appended bits take out of fill-domination is re-stored dense.
//
// It reports false — and the caller falls back to a full rebuild — when the
// patch cannot preserve semantics: next is not a strict row extension, the
// index is unbinned (value-rank columns shift on any insertion, so BIG
// semantics require a rebuild), or a dimension with no observed values in
// old gains one (there is no bin structure to extend).
func AppendRows(old *Index, next *data.Dataset) (*Index, bool) {
	oldN := old.ds.Len()
	n := next.Len()
	delta := n - oldN
	dim := old.ds.Dim()
	if delta <= 0 || next.Dim() != dim || !old.binned {
		return nil, false
	}

	// Per-dimension view of the appended rows: sorted distinct values with
	// counts, plus the missing count.
	type dimDelta struct {
		vals []float64
		cnt  []int
		miss int
	}
	deltas := make([]dimDelta, dim)
	{
		sub := next.Slice(oldN, n)
		for d, st := range sub.Stats() {
			deltas[d] = dimDelta{vals: st.Distinct, cnt: st.CountPerValue, miss: st.MissingCount}
		}
	}

	// Merge each dimension's stats and derive, in one two-pointer walk: the
	// merged rank→bin map (old ranks keep their bin, new values inherit their
	// predecessor's) and the rank shift of every old rank (its merged rank is
	// oldRank + shift[oldRank]).
	merged := make([]data.DimStats, dim)
	r2bs := make([][]int, dim)
	shifts := make([][]int32, dim)
	shifted := false
	for d := 0; d < dim; d++ {
		st := &old.stats[d]
		dd := &deltas[d]
		ci := st.Cardinality()
		if ci == 0 && len(dd.vals) > 0 {
			return nil, false
		}
		oldR2B := old.dims[d].rankToBucket
		m := data.DimStats{
			Distinct:      make([]float64, 0, ci+len(dd.vals)),
			CountPerValue: make([]int, 0, ci+len(dd.vals)),
			MissingCount:  st.MissingCount + dd.miss,
		}
		r2b := make([]int, 0, ci+len(dd.vals))
		sh := make([]int32, ci)
		ins := 0
		for i, j := 0, 0; i < ci || j < len(dd.vals); {
			switch {
			case j >= len(dd.vals) || (i < ci && st.Distinct[i] < dd.vals[j]):
				sh[i] = int32(ins)
				m.Distinct = append(m.Distinct, st.Distinct[i])
				m.CountPerValue = append(m.CountPerValue, st.CountPerValue[i])
				r2b = append(r2b, oldR2B[i])
				i++
			case i < ci && st.Distinct[i] == dd.vals[j]:
				sh[i] = int32(ins)
				m.Distinct = append(m.Distinct, st.Distinct[i])
				m.CountPerValue = append(m.CountPerValue, st.CountPerValue[i]+dd.cnt[j])
				r2b = append(r2b, oldR2B[i])
				i++
				j++
			default:
				m.Distinct = append(m.Distinct, dd.vals[j])
				m.CountPerValue = append(m.CountPerValue, dd.cnt[j])
				b := 0
				if i > 0 {
					b = oldR2B[i-1]
				}
				r2b = append(r2b, b)
				ins++
				j++
			}
		}
		merged[d] = m
		r2bs[d] = r2b
		shifts[d] = sh
		shifted = shifted || ins > 0
	}

	// Rank table. Old rows shift by the number of new distinct values
	// inserted below them — a rewrite into a fresh table — unless nothing was
	// inserted anywhere, in which case old's table is extended as it stands.
	// Appended rows look up their merged rank either way.
	var ranks []int32
	if shifted {
		ranks = make([]int32, n*dim)
		for i := 0; i < oldN*dim; i += dim {
			for d, r := range old.ranks[i : i+dim] {
				if r >= 0 {
					r += shifts[d][r]
				}
				ranks[i+d] = r
			}
		}
	} else {
		ranks = old.ranks[:oldN*dim]
		if !old.ranksExtended.CompareAndSwap(false, true) {
			ranks = slices.Clip(ranks)
		}
		ranks = slices.Grow(ranks, delta*dim)[:n*dim]
	}
	if fillRanks(ranks[oldN*dim:], next, oldN, merged) != nil {
		return nil, false
	}

	ix := &Index{
		ds:       next,
		stats:    merged,
		dims:     make([]dimIndex, dim),
		codec:    old.codec,
		binned:   true,
		adaptive: old.adaptive,
		ranks:    ranks,
		masks:    countMasks(old.masks, next, oldN),
		ones:     bitvec.NewOnes(n),
	}

	// Patch the columns: each column's new tail is the delta rows' bits under
	// the same range-encoded rule (bit j set iff bin(row oldN+j) >= b or
	// missing), produced by buildDim's peel-off pass over the delta rows'
	// bits, then appended through the representation's extend path. A batch
	// is not sorted, so each bucket's rows are found by a scan of bucketOf
	// (−1: missing, never peeled), one buffer for every dimension.
	deltaOnes := bitvec.NewOnes(delta)
	cur := bitvec.New(delta)
	bucketOf := make([]int32, delta)
	for d := 0; d < dim; d++ {
		oldDi := &old.dims[d]
		buckets := len(oldDi.cols) - 1
		cols := make([]column, buckets+1)
		cols[0] = ix.extendColumn(&oldDi.cols[0], deltaOnes)
		for j := range bucketOf {
			bucketOf[j] = -1
			if r := ranks[(oldN+j)*dim+d]; r >= 0 {
				bucketOf[j] = int32(r2bs[d][r])
			}
		}
		cur.SetAll()
		for b := 1; b <= buckets; b++ {
			for j, bj := range bucketOf {
				if bj == int32(b-1) {
					cur.Clear(j)
				}
			}
			cols[b] = ix.extendColumn(&oldDi.cols[b], cur)
		}
		// A new distinct value joined its predecessor's bucket: one that was
		// exact stops being so here.
		ix.dims[d] = mustDimIndex(cols, r2bs[d])
	}
	ix.initColCache()
	return ix, true
}

// extendColumn appends extra's bits (the delta rows' tail) to a frozen
// column of the index ix patches, without mutating it: dense columns
// word-copy into a longer vector (the trimmed-tail invariant guarantees the
// straddling word's padding is clean) and compressed columns go through
// CONCISE's O(words + delta) Extend, which re-measures the run-native flag
// for the new length. On an adaptive index a column that stops being
// fill-dominated is decompressed once and dense from then on.
func (ix *Index) extendColumn(old *column, extra *bitvec.Vector) column {
	if old.kind == kindDense {
		oldN := old.dense.Len()
		v := bitvec.New(oldN + extra.Len())
		copy(v.Words(), old.dense.Words())
		extra.ForEach(func(j int) bool {
			v.Set(oldN + j)
			return true
		})
		return column{kind: kindDense, dense: v}
	}
	return newConciseColumn(old.conc.Extend(extra), ix.adaptive)
}
