// Package bitmapidx implements the bitmap index over incomplete data from
// §4.3 of the TKD paper, and its binned variant from §4.4.
//
// Layout. For dimension i with Ci distinct observed values v_0 < … < v_{Ci-1}
// the index holds Ci+1 range-encoded columns of N bits each (the vertical
// transposition of the paper's per-object bit strings, Fig. 6):
//
//	col[0]   — all ones ("missing or any value");
//	col[r]   — bit p set iff p[i] > v_{r-1} or p[i] is missing, r = 1..Ci.
//
// For an object o with o[i] observed at value rank r, the paper's per-
// dimension candidate sets fall out of adjacent columns:
//
//	[Qi] = col[r]   = { p : p[i] ≥ o[i] or missing }
//	[Pi] = col[r+1] = { p : p[i] > o[i] or missing }
//
// and both are all-ones when o[i] is missing, exactly as in Definition 4.
// A missing value is encoded as all ones across the dimension, matching the
// paper's "sub-string with all 1" rule.
//
// The binned variant replaces value ranks with bin ranks: dimension i gets
// ξi+1 columns, bins are assigned by the adaptive equi-depth rule of
// Eq. (3)–(4), and [Qi]/[Pi] become bin-granular (so Lemma 3 no longer
// holds and the IBIG refinement of Algorithm 5 takes over).
//
// Every column is stored dense, as a raw bit vector read by the fused word
// kernels of internal/bitvec. The paper stores them in CONCISE (the codec it
// picks over WAH in Fig. 10) to trade bytes for decompression work (Fig. 11);
// on a cumulative bucket column of incomplete data — a row missing on a
// dimension is set in every one of its columns — that trade does not pay
// (DESIGN.md §1), so CONCISE and WAH live on in internal/experiments, which
// reproduces Figs. 10–11 and Table 3 with them, and here only in Load, which
// decompresses the CONCISE columns of a file an earlier build wrote.
package bitmapidx

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/data"
)

// Options configures Build.
type Options struct {
	// Bins, when non-nil, requests a binned index with Bins[i] value bins in
	// dimension i (the paper's ξi; the +1 missing column is implicit). A
	// single-element slice is broadcast to every dimension; a non-nil empty
	// slice falls back to the Eq. (8) optimum for every dimension. Bin counts
	// are clamped to [1, Ci].
	Bins []int
}

type dimIndex struct {
	cols []*bitvec.Vector // len = buckets+1; cols[0] is the all-ones column
	// rankToBucket maps a value rank to its column bucket: identity for the
	// unbinned index, the bin assignment for the binned one.
	rankToBucket []int
	// exact[b] says exactly one value rank maps to bucket b, so tying the
	// bucket is equalling the value (see score.go). Derived wherever
	// rankToBucket is written — build, patch, load — and never persisted.
	exact []bool
}

// newDimIndex pairs a dimension's columns with its rank→bucket map and
// derives the exact-bucket flags. It reports false when the map is not what
// a build or a patch produces — starting at bucket 0, non-decreasing in
// steps of at most one and ending at the last bucket the columns hold —
// which only a crafted file can be.
func newDimIndex(cols []*bitvec.Vector, rankToBucket []int) (dimIndex, bool) {
	buckets := len(cols) - 1
	if buckets < 0 {
		return dimIndex{}, false
	}
	exact := make([]bool, buckets)
	prev := -1
	for r, b := range rankToBucket {
		if b != prev && b != prev+1 || b >= buckets {
			return dimIndex{}, false
		}
		exact[b] = b != prev && (r+1 == len(rankToBucket) || rankToBucket[r+1] != b)
		prev = b
	}
	if prev != buckets-1 {
		return dimIndex{}, false
	}
	return dimIndex{cols: cols, rankToBucket: rankToBucket, exact: exact}, true
}

// Index is a (possibly binned) bitmap index over one dataset.
type Index struct {
	ds     *data.Dataset
	stats  []data.DimStats
	dims   []dimIndex
	binned bool
	// ranks is the value-rank table, flat with stride dim: ranks[i*dim+d] is
	// the rank of object i in dimension d, -1 when missing; precomputed so
	// Q/P lookups never search. A patched index whose append brought no new
	// distinct value extends its predecessor's table in place (see
	// AppendRows).
	ranks []int32
	// masks holds the row count of every distinct observed-dimension mask,
	// the input of the scorers' |F(o)| derivation (see maskcount.go).
	masks []maskCount
	// ranksExtended marks that the spare capacity behind ranks has been
	// handed to a successor (AppendRows). Written once per publish; kept at
	// the end, away from the fields every candidate reads.
	ranksExtended atomic.Bool
	// cursors holds released cursors over this index (Cursor.Release), so a
	// query's vectors, buffers and |F| memo serve the next query's NewCursor.
	cursors sync.Pool
}

// Build constructs the index over ds: one sort per dimension
// (data.Dataset.SortDims), then BuildSorted. Pass the same dataset to the
// query algorithms.
func Build(ds *data.Dataset, opts Options) *Index {
	return BuildSorted(ds.SortDims(), opts)
}

// BuildSorted constructs the index from a dataset already sorted, for
// callers that build more than one thing from the same rows: the stats and
// the rank table are the sort's (shared, read-only), and every dimension's
// columns peel off its sorted order, the dimensions side by side.
func BuildSorted(s *data.Sorted, opts Options) *Index {
	ds := s.Dataset()
	n, dim := ds.Len(), ds.Dim()
	if opts.Bins != nil && len(opts.Bins) == 0 {
		// A binned index was requested with no counts: use the Eq. (8)
		// optimum everywhere rather than panicking in binsFor.
		opts.Bins = []int{OptimalBins(n, ds.MissingRate())}
	}
	ix := &Index{
		ds:     ds,
		stats:  s.Stats,
		dims:   make([]dimIndex, dim),
		binned: opts.Bins != nil,
		ranks:  s.Ranks,
		masks:  countMasks(nil, ds, 0),
	}
	data.ForEachDim(dim, func(d int) {
		st := &s.Stats[d]
		var r2b []int
		if ix.binned {
			r2b = AssignBins(st, binsFor(opts.Bins, d))
		} else {
			r2b = make([]int, st.Cardinality())
			for r := range r2b {
				r2b[r] = r
			}
		}
		ix.dims[d] = ix.buildDim(r2b, st.CountPerValue, s.Order[d])
	})
	return ix
}

// fillRanks writes the ranks of rows [from, ds.Len()) of ds under stats into
// ranks, which starts at row from — the lookup AppendRows gives the rows it
// appends; a build takes every rank from the sort instead.
func fillRanks(ranks []int32, ds *data.Dataset, from int, stats []data.DimStats) error {
	dim := ds.Dim()
	for i := from; i < ds.Len(); i++ {
		o := ds.Obj(i)
		r := ranks[(i-from)*dim : (i-from+1)*dim]
		for d := range r {
			r[d] = -1
			if o.Observed(d) {
				rank := stats[d].Rank(o.Values[d])
				if rank < 0 {
					return fmt.Errorf("bitmapidx: value %v of object %d absent from dimension %d stats", o.Values[d], i, d)
				}
				r[d] = int32(rank)
			}
		}
	}
	return nil
}

func binsFor(bins []int, d int) int {
	if len(bins) == 1 {
		return bins[0]
	}
	if d < len(bins) {
		return bins[d]
	}
	panic(fmt.Sprintf("bitmapidx: no bin count for dimension %d", d))
}

// buildDim materializes the columns of one dimension. Column b has bit p set
// iff bucket(p[d]) >= b or p[d] is missing (so column 0 is all ones); it is
// produced by peeling objects off the previous column as their bucket is
// passed. order is the dimension's objects by ascending rank and counts its
// objects per rank (data.Sorted), so bucket b's objects are the next run of
// order: the whole dimension costs O(N · buckets/64 + N) word work and no
// lookup.
func (ix *Index) buildDim(rankToBucket, counts []int, order []int32) dimIndex {
	buckets := 0
	if ci := len(rankToBucket); ci > 0 {
		buckets = rankToBucket[ci-1] + 1
	}
	cols := make([]*bitvec.Vector, buckets+1)
	cur := bitvec.NewOnes(ix.ds.Len())
	r := 0
	for b := range cols {
		for ; r < len(counts) && rankToBucket[r] < b; r++ {
			for _, id := range order[:counts[r]] {
				cur.Clear(int(id))
			}
			order = order[counts[r]:]
		}
		cols[b] = cur.Clone()
	}
	return mustDimIndex(cols, rankToBucket)
}

// mustDimIndex is newDimIndex for a map this package made itself.
func mustDimIndex(cols []*bitvec.Vector, rankToBucket []int) dimIndex {
	di, ok := newDimIndex(cols, rankToBucket)
	if !ok {
		panic("bitmapidx: malformed rank→bucket map")
	}
	return di
}

// Binned reports whether the index is bin-granular.
func (ix *Index) Binned() bool { return ix.binned }

// Dataset returns the indexed dataset.
func (ix *Index) Dataset() *data.Dataset { return ix.ds }

// Stats returns the per-dimension statistics the index was built from.
func (ix *Index) Stats() []data.DimStats { return ix.stats }

// SizeBytes returns the total column payload — the paper's cost_s.
func (ix *Index) SizeBytes() int {
	total := 0
	for d := range ix.dims {
		for c := range ix.dims[d].cols {
			total += ix.dims[d].cols[c].SizeBytes()
		}
	}
	return total
}

// ForEachColumn visits every column of the index (the visitor must not
// mutate it). The compression experiments (Fig. 10) use this to feed the
// codecs the exact column population of a real index.
func (ix *Index) ForEachColumn(fn func(v *bitvec.Vector)) {
	for d := range ix.dims {
		for _, v := range ix.dims[d].cols {
			fn(v)
		}
	}
}

// Bucket returns the column bucket of object obj in dimension d, or -1 when
// the value is missing. For the unbinned index the bucket is the value rank.
func (ix *Index) Bucket(obj, d int) int {
	r := ix.Rank(obj, d)
	if r < 0 {
		return -1
	}
	return ix.dims[d].rankToBucket[r]
}

// Ranks returns the value-rank table for whole-table walks: flat with stride
// Dataset().Dim(), Ranks()[obj*dim+d] == Rank(obj, d). Read-only — the table
// may be shared with the index this one was patched from.
func (ix *Index) Ranks() []int32 { return ix.ranks }

// Rank returns the value rank of object obj in dimension d, or -1.
func (ix *Index) Rank(obj, d int) int { return int(ix.ranks[obj*ix.ds.Dim()+d]) }

// BucketMinValue returns the smallest observed value falling in bucket b of
// dimension d — the bin's lower boundary, which the IBIG B+-tree refinement
// seeks to before scanning the bin (§4.5: "traverse the B+-tree to locate
// the minimum boundary of the bin where o is located").
func (ix *Index) BucketMinValue(d, b int) float64 {
	r2b := ix.dims[d].rankToBucket
	// rankToBucket is monotone non-decreasing; find the first rank in b.
	lo := sort.Search(len(r2b), func(r int) bool { return r2b[r] >= b })
	if lo == len(r2b) || r2b[lo] != b {
		panic(fmt.Sprintf("bitmapidx: empty bucket %d in dimension %d", b, d))
	}
	return ix.stats[d].Distinct[lo]
}

// Cursor carries the per-query scratch state for Q/P computation. Cursors
// are not safe for concurrent use; take one per goroutine — the columns are
// the index's and read-only, so extra cursors are cheap. Every buffer below
// is reused across candidates, so a warmed-up cursor is allocation-free per
// candidate on both the serial and parallel paths, and a released cursor
// (Release) is reused by a later NewCursor on its index, so a query that
// draws one allocates none of it.
type Cursor struct {
	ix *Index
	// q and p hold QP's result; w the scoring kernel's W ∩ ∩Qᵢ.
	q, p, w *bitvec.Vector
	terms   []bitvec.TieTerm // the scoring kernel's reusable column buffer
	cols    []*bitvec.Vector // the count kernel's reusable column buffer
	qrefs   []qref
	// fmemo[i] is IncomparableRows(ix.masks[i].mask) + 1 once evaluated, 0
	// before; allocated by the first call.
	fmemo []int32
	// blocks is the dense count and scoring kernels' block scratch.
	blocks bitvec.Scratch
}

// NewCursor returns a cursor over the index: a released one when the index
// holds one, else a new one.
func (ix *Index) NewCursor() *Cursor {
	if c, ok := ix.cursors.Get().(*Cursor); ok {
		return c
	}
	return ix.newCursor()
}

// newCursor allocates a cursor over the index.
func (ix *Index) newCursor() *Cursor {
	n := ix.ds.Len()
	return &Cursor{
		ix:    ix,
		q:     bitvec.New(n),
		p:     bitvec.New(n),
		w:     bitvec.New(n),
		cols:  make([]*bitvec.Vector, 0, len(ix.dims)),
		qrefs: make([]qref, 0, len(ix.dims)),
		terms: make([]bitvec.TieTerm, 0, len(ix.dims)),
	}
}

// Release hands the cursor back to its index for a later NewCursor; the
// caller must not use it, or a vector it returned, afterwards. Nothing a
// cursor keeps depends on the query that used it: every buffer is rewritten
// before it is read, and the |F| memo is a constant of the index.
func (c *Cursor) Release() { c.ix.cursors.Put(c) }

// Index returns the index the cursor reads.
func (c *Cursor) Index() *Index { return c.ix }

// QP computes the paper's sets Q = ∩Qi − {o} and P = ∩Pi for object obj as
// bit vectors (Definition 4), in one fused pass per observed dimension over
// its two columns; the first observed dimension seeds both accumulators
// directly, so no SetAll pass is paid. The returned vectors are owned by the
// cursor and valid until the next QP call.
func (c *Cursor) QP(obj int) (q, p *bitvec.Vector) {
	refs := c.buildRefs(obj)
	var cq0, cp0 *bitvec.Vector
	for i, r := range refs {
		cols := c.ix.dims[r.d].cols
		cq, cp := cols[r.qb], cols[r.qb+1]
		switch i {
		case 0:
			cq0, cp0 = cq, cp
		case 1:
			bitvec.And2Into(c.q, cq0, cq)
			bitvec.And2Into(c.p, cp0, cp)
		default:
			bitvec.AndPairInto(c.q, c.p, cq, cp)
		}
	}
	switch len(refs) {
	case 0:
		c.q.SetAll()
		c.p.SetAll()
	case 1:
		c.q.CopyFrom(cq0)
		c.p.CopyFrom(cp0)
	}
	c.q.Clear(obj)
	return c.q, c.p
}

// buildRefs gathers the column references of an in-set object into the
// cursor's reusable buffer: Q is column bucket(o), P the adjacent column
// bucket(o)+1 (which always exists — the column one past the worst bucket is
// exactly the "missing in this dimension" set), and the tie set is exact
// when o's value has the bucket to itself.
func (c *Cursor) buildRefs(obj int) []qref {
	ix := c.ix
	refs := c.qrefs[:0]
	for d, r := range ix.ranks[obj*len(ix.dims):][:len(ix.dims)] {
		if r < 0 {
			continue // missing: Qi = Pi = S, the all-ones column
		}
		di := &ix.dims[d]
		b := di.rankToBucket[r]
		t := bitvec.TieWalk
		if di.exact[b] {
			t = bitvec.TieExact
		}
		refs = append(refs, qref{d: int32(d), qb: int32(b), tie: t, key: 2 * r})
	}
	c.qrefs = refs
	return refs
}

// MaxBitScore computes |Q| = |∩Qi − {o}| for object obj — the Heuristic 2
// upper bound — without materializing the intersection or P.
func (c *Cursor) MaxBitScore(obj int) int {
	// o always belongs to ∩Qi: its own bits pass every Qi column.
	cnt, _ := c.intersectQAbove(c.buildRefs(obj), noTau)
	return cnt - 1
}

// MaxBitScoreAbove is the threshold-aware MaxBitScore: it reports whether
// the Heuristic 2 bound exceeds tau, returning the exact bound when it does.
// Every path bails out as soon as the remaining columns/words cannot
// lift the count past tau, so pruned candidates (the common case late in a
// query) cost a fraction of a full count.
func (c *Cursor) MaxBitScoreAbove(obj, tau int) (int, bool) {
	// maxBit = |∩Qi| − 1 (o passes every column), so maxBit > tau ⇔
	// |∩Qi| > tau+1.
	cnt, above := c.intersectQAbove(c.buildRefs(obj), tau+1)
	if !above {
		return 0, false
	}
	return cnt - 1, true
}

// noTau turns a threshold-aware count into an unconditional one: no count
// can fail to beat it, so the early exits never fire and the exact count
// comes back.
const noTau = -1 << 62

// intersectQAbove computes |∩Qi| over the given Q-column refs with the
// bitvec.IntersectCountAbove contract. A bucket-0 Q-column is all ones, the
// identity of AND, and is left out; with nothing left, every row counts.
func (c *Cursor) intersectQAbove(refs []qref, tau int) (int, bool) {
	cols := c.cols[:0]
	for _, r := range refs {
		if r.qb != 0 {
			cols = append(cols, c.ix.dims[r.d].cols[r.qb])
		}
	}
	c.cols = cols
	if len(cols) == 0 {
		n := c.ix.ds.Len()
		return n, n > tau
	}
	return c.blocks.IntersectCountAbove(tau, cols...)
}
