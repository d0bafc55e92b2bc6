package bitmapidx

import (
	"slices"

	"repro/internal/data"
)

// maskCount is the number of indexed rows observed on exactly the dimensions
// of mask.
type maskCount struct {
	mask uint64
	rows int
}

// countMasks tallies rows [from, ds.Len()) of ds per observed-dimension mask
// on top of base (the counts of rows [0, from)), sorted by mask. Derived
// state like the rank table: computed once per index — Build and Load pass
// from = 0, AppendRows carries the old epoch's counts forward in
// O(delta · log delta + masks) — and never persisted.
func countMasks(base []maskCount, ds *data.Dataset, from int) []maskCount {
	added := make([]uint64, 0, ds.Len()-from)
	for i := from; i < ds.Len(); i++ {
		added = append(added, ds.Obj(i).Mask)
	}
	slices.Sort(added)
	// Merge the sorted runs of added into base. (A sort and a merge rather
	// than a map: the publish path's allocation count is gated exactly, and a
	// map's growth is not a fixed number of allocations.)
	out := make([]maskCount, 0, len(base))
	b := 0
	for i := 0; i < len(added); {
		m := added[i]
		j := i
		for j < len(added) && added[j] == m {
			j++
		}
		for b < len(base) && base[b].mask < m {
			out = append(out, base[b])
			b++
		}
		rows := j - i
		if b < len(base) && base[b].mask == m {
			rows += base[b].rows
			b++
		}
		out = append(out, maskCount{mask: m, rows: rows})
		i = j
	}
	return append(out, base[b:]...)
}

// IncomparableRows returns |F| for a candidate observed on mask: the number
// of indexed rows sharing no observed dimension with it. Every such row is
// missing on each of the candidate's dimensions, hence set in every column of
// those dimensions, hence a member of P — which is what lets the scorers take
// |G| = |P| − |F| from two counts. Linear in the distinct masks; callers
// scoring many candidates memoize per mask.
func (ix *Index) IncomparableRows(mask uint64) int {
	n := 0
	for _, mc := range ix.masks {
		if mc.mask&mask == 0 {
			n += mc.rows
		}
	}
	return n
}
