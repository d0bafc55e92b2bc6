package bitmapidx

import (
	"cmp"
	"math/bits"
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
// O(delta + masks) — and never persisted. The masks sort through the kernel
// the cold build sorts values with (data.RadixSort): on d ≤ 11 dimensions they
// vary within one digit, one counting pass and one scatter.
func countMasks(base []maskCount, ds *data.Dataset, from int) []maskCount {
	n := ds.Len() - from
	buf := make([]data.RadixKey, 2*n) // keys, then the sort's scratch
	and, or := ^uint64(0), uint64(0)
	for i := range n {
		m := ds.Obj(from + i).Mask
		buf[i].Key = m
		and &= m
		or |= m
	}
	added := data.RadixSort(buf[:n], buf[n:], and^or)
	// Merge the sorted runs of added into base. (A sort and a merge rather
	// than a map: the publish path's allocation count is gated exactly, and a
	// map's growth is not a fixed number of allocations.)
	out := make([]maskCount, 0, len(base))
	b := 0
	for i := 0; i < len(added); {
		m := added[i].Key
		j := i
		for j < len(added) && added[j].Key == m {
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
// those dimensions — a member of ∩Qᵢ that the candidate can never dominate,
// which is what lets Heuristic 2 prune on |∩Qᵢ| − |F|.
//
// F is ∩ᵢ Mᵢ over the candidate's observed dimensions and, read row-wise, the
// rows whose mask is disjoint from the candidate's; the two evaluations cost
// one word operation per column word per observed dimension and one per
// distinct mask of the index, and the cheaper is taken — so |F| never costs
// more than the |∩Qᵢ| count beside it, whether the index holds 31 masks over
// 100,000 rows or 2,873 over 3,700. It is a constant of the index per mask,
// and the cursor keeps what it has evaluated for the masks the index holds:
// the paper's default shapes put ≈ 10⁴ candidates of ≈ 10³ masks through
// Heuristic 2 in one query.
func (c *Cursor) IncomparableRows(mask uint64) int {
	ix := c.ix
	i, held := slices.BinarySearchFunc(ix.masks, mask, func(mc maskCount, m uint64) int { return cmp.Compare(mc.mask, m) })
	if held {
		if c.fmemo == nil {
			c.fmemo = make([]int32, len(ix.masks))
		}
		if f := c.fmemo[i]; f != 0 {
			return int(f) - 1
		}
	}
	var n int
	if words := (ix.ds.Len() + 63) / 64; bits.OnesCount64(mask)*words < len(ix.masks) {
		n = c.missingEverywhere(mask)
	} else {
		n = ix.disjointMaskRows(mask)
	}
	if held {
		c.fmemo[i] = int32(n) + 1
	}
	return n
}

// disjointMaskRows is IncomparableRows read off the per-mask row counts.
func (ix *Index) disjointMaskRows(mask uint64) int {
	n := 0
	for _, mc := range ix.masks {
		if mc.mask&mask == 0 {
			n += mc.rows
		}
	}
	return n
}

// missingEverywhere is IncomparableRows read off the columns: |∩ᵢ Mᵢ|, Mᵢ
// being the last column of dimension i (no bucket reaches past it, so only the
// rows missing the dimension are set there).
func (c *Cursor) missingEverywhere(mask uint64) int {
	refs := c.qrefs[:0]
	for d := range c.ix.dims {
		if mask&(1<<uint(d)) != 0 {
			refs = append(refs, qref{d: int32(d), qb: int32(len(c.ix.dims[d].cols) - 1)})
		}
	}
	c.qrefs = refs
	n, _ := c.intersectQAbove(refs, noTau)
	return n
}
