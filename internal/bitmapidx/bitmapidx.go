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
// Columns are stored raw (dense) or compressed with CONCISE, the codec the
// paper picks over WAH in Fig. 10; compression trades storage cost against
// per-query decompression work, the trade-off Fig. 11 measures. An adaptive
// index picks per column: CONCISE when the compression is fill-dominated,
// dense otherwise (see column.go and DESIGN.md §1).
package bitmapidx

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/compress/concise"
	"repro/internal/data"
)

// Codec selects the physical column representation.
type Codec int

// The values are the persisted header codec bytes of format v4. Value 1 was
// WAH, which the index no longer stores: it stays reserved so old files are
// recognized and rejected (ErrUnsupportedCodec), never misread.
const (
	// Raw stores dense, uncompressed columns.
	Raw Codec = 0
	// Concise stores CONCISE-compressed columns (the paper's pick for IBIG).
	Concise Codec = 2
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case Raw:
		return "raw"
	case Concise:
		return "CONCISE"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// Options configures Build.
type Options struct {
	// Codec is the column storage format.
	Codec Codec
	// Bins, when non-nil, requests a binned index with Bins[i] value bins in
	// dimension i (the paper's ξi; the +1 missing column is implicit). A
	// single-element slice is broadcast to every dimension; a non-nil empty
	// slice falls back to the Eq. (8) optimum for every dimension. Bin counts
	// are clamped to [1, Ci].
	Bins []int
	// Adaptive lets every (dimension, bin) column pick its own physical
	// representation: compressed when the codec gets the column
	// fill-dominated (≤ ¼ of the dense payload, served by the run-native
	// kernels), dense otherwise. Raw promotes to CONCISE as the compression
	// codec. Leaving Adaptive false stores every column in Codec (the
	// paper's setups).
	Adaptive bool
}

type dimIndex struct {
	cols []column // len = buckets+1; cols[0] is the shared all-ones column
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
func newDimIndex(cols []column, rankToBucket []int) (dimIndex, bool) {
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

// Index is a (possibly binned, possibly compressed) bitmap index over one
// dataset.
type Index struct {
	ds       *data.Dataset
	stats    []data.DimStats
	dims     []dimIndex
	codec    Codec
	binned   bool
	adaptive bool
	// rep counts columns served per representation and how compressed
	// columns were served (run-native kernel vs dense materialization);
	// surfaced through CacheStats for the serving metrics.
	rep repStats
	// ranks is the value-rank table, flat with stride dim: ranks[i*dim+d] is
	// the rank of object i in dimension d, -1 when missing; precomputed so
	// Q/P lookups never search. A patched index whose append brought no new
	// distinct value extends its predecessor's table in place (see
	// AppendRows).
	ranks []int32
	// masks holds the row count of every distinct observed-dimension mask,
	// the input of the scorers' |F(o)| derivation (see maskcount.go).
	masks []maskCount
	ones  *bitvec.Vector // shared all-ones column
	// colCache holds the decompressed columns of a compressed index, shared
	// by every cursor (nil for Raw indexes): every dense read of a compressed
	// column goes through it (Cursor.dense). A query touches the same columns
	// for thousands of candidates, and a parallel query touches them from N
	// workers, so a column is decompressed at most once per index and stays
	// resident while it fits the budget; past the budget it is read through
	// cursor scratch. No policy picks columns to evict: DESIGN.md §1 has the
	// census that shows no index the repository builds outgrows the default
	// budget (SetCacheBudget below the resident bytes drops them all).
	colCache [][]atomic.Pointer[bitvec.Vector]
	colSize  int64 // bytes of one decompressed column
	cache    cacheState
	// ranksExtended marks that the spare capacity behind ranks has been
	// handed to a successor (AppendRows). Written once per publish; kept at
	// the end, away from the fields every candidate reads.
	ranksExtended atomic.Bool
}

// cacheState carries the cache's accounting: the configurable byte budget,
// the resident byte count and the hit/miss counters surfaced by CacheStats.
type cacheState struct {
	budget atomic.Int64
	bytes  atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

// repStats counts column consumption on the query path: how many columns
// each representation served, and — for compressed columns — whether the
// run-native kernels handled them or they fell back to a dense
// materialization (shared cache or cursor scratch). Cursors tally per
// operation and flush once, so the hot path pays a handful of atomic adds
// per candidate, not per column.
type repStats struct {
	dense      atomic.Int64
	compressed atomic.Int64
	native     atomic.Int64
	fallback   atomic.Int64
}

// repTally is one operation's local representation counts, flushed to the
// index's atomic counters at the end of the operation.
type repTally struct {
	dense, compressed, native, fallback int64
}

func (ix *Index) flushTally(t *repTally) {
	if t.dense != 0 {
		ix.rep.dense.Add(t.dense)
	}
	if t.compressed != 0 {
		ix.rep.compressed.Add(t.compressed)
	}
	if t.native != 0 {
		ix.rep.native.Add(t.native)
	}
	if t.fallback != 0 {
		ix.rep.fallback.Add(t.fallback)
	}
}

// CacheStats is a point-in-time snapshot of the decompressed-column cache
// and representation counters. Hits and Misses count sharedDense lookups (a
// miss pays one decompression), Bytes is the resident payload and Budget the
// configured bound. DenseCols/CompressedCols count columns served per
// physical representation on the query path; NativeKernel and Fallback split
// the compressed-column traffic into run-native kernel hits versus dense
// materializations (cache or scratch).
type CacheStats struct {
	Hits   int64
	Misses int64
	Bytes  int64
	Budget int64

	DenseCols      int64
	CompressedCols int64
	NativeKernel   int64
	Fallback       int64
}

// CacheStats returns the current cache and representation counters. A Raw
// index has no cache: its Hits, Misses, Bytes and Budget stay zero.
func (ix *Index) CacheStats() CacheStats {
	return CacheStats{
		Hits:   ix.cache.hits.Load(),
		Misses: ix.cache.misses.Load(),
		Bytes:  ix.cache.bytes.Load(),
		Budget: ix.cache.budget.Load(),

		DenseCols:      ix.rep.dense.Load(),
		CompressedCols: ix.rep.compressed.Load(),
		NativeKernel:   ix.rep.native.Load(),
		Fallback:       ix.rep.fallback.Load(),
	}
}

// SetCacheBudget rebounds the decompressed-column cache to at most bytes (the
// default is DefaultCacheBudget). A bound below what is resident drops every
// resident column, and the cache refills first-come under the new bound. Safe
// to call while queries are running: a dropped column is never mutated, so a
// cursor holding one keeps reading it.
func (ix *Index) SetCacheBudget(bytes int64) {
	if ix.codec == Raw {
		return
	}
	ix.cache.budget.Store(bytes)
	if ix.cache.bytes.Load() <= bytes {
		return
	}
	for d := range ix.colCache {
		for b := range ix.colCache[d] {
			if ix.colCache[d][b].Swap(nil) != nil {
				ix.cache.bytes.Add(-ix.colSize)
			}
		}
	}
}

// initColCache allocates the shared cache slots for a compressed index.
func (ix *Index) initColCache() {
	if ix.codec == Raw {
		return
	}
	ix.colSize = int64(8 * ((ix.ds.Len() + 63) / 64))
	ix.cache.budget.Store(DefaultCacheBudget)
	ix.colCache = make([][]atomic.Pointer[bitvec.Vector], len(ix.dims))
	for d := range ix.dims {
		ix.colCache[d] = make([]atomic.Pointer[bitvec.Vector], len(ix.dims[d].cols))
	}
}

// sharedDense returns compressed column (d, b) decompressed from the shared
// cache, decompressing it into a new resident entry on a miss while the
// budget has room, or nil when it has none — callers then decompress into
// per-cursor scratch, so a budget below the working set degrades to scratch
// reuse instead of allocating a fresh vector per touch. Safe for concurrent
// use by many cursors; a returned vector is never mutated.
func (ix *Index) sharedDense(d, b int) *bitvec.Vector {
	slot := &ix.colCache[d][b]
	if v := slot.Load(); v != nil {
		ix.cache.hits.Add(1)
		return v
	}
	ix.cache.misses.Add(1)
	if ix.cache.bytes.Add(ix.colSize) > ix.cache.budget.Load() {
		ix.cache.bytes.Add(-ix.colSize)
		return nil
	}
	v := bitvec.New(ix.ds.Len())
	ix.dims[d].cols[b].conc.DecompressInto(v)
	if !slot.CompareAndSwap(nil, v) {
		// A concurrent miss raced us in: return the reservation and use its
		// copy (ours is as good if a budget change dropped it meanwhile).
		ix.cache.bytes.Add(-ix.colSize)
		if cached := slot.Load(); cached != nil {
			return cached
		}
	}
	return v
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
	codec := opts.Codec
	if opts.Adaptive && codec == Raw {
		// The fill-dominated columns of an adaptive index need a codec;
		// CONCISE is the paper's pick for IBIG.
		codec = Concise
	}
	ix := &Index{
		ds:       ds,
		stats:    s.Stats,
		dims:     make([]dimIndex, dim),
		codec:    codec,
		binned:   opts.Bins != nil,
		adaptive: opts.Adaptive,
		ranks:    s.Ranks,
		masks:    countMasks(nil, ds, 0),
		ones:     bitvec.NewOnes(n),
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
	ix.initColCache()
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

// buildDim materializes the columns of one dimension. Column b (1-based
// bucket) has bit p set iff bucket(p[d]) >= b or p[d] is missing; it is
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
	cols := make([]column, buckets+1)
	cols[0] = ix.encode(ix.ones)
	cur := bitvec.NewOnes(ix.ds.Len())
	r := 0
	for b := 1; b <= buckets; b++ {
		for ; r < len(counts) && rankToBucket[r] < b; r++ {
			for _, id := range order[:counts[r]] {
				cur.Clear(int(id))
			}
			order = order[counts[r]:]
		}
		cols[b] = ix.encode(cur)
	}
	return mustDimIndex(cols, rankToBucket)
}

// mustDimIndex is newDimIndex for a map this package made itself.
func mustDimIndex(cols []column, rankToBucket []int) dimIndex {
	di, ok := newDimIndex(cols, rankToBucket)
	if !ok {
		panic("bitmapidx: malformed rank→bucket map")
	}
	return di
}

// encode stores a snapshot of v under the configured codec; an adaptive
// index picks the representation per column instead.
func (ix *Index) encode(v *bitvec.Vector) column {
	if ix.adaptive {
		return ix.encodeAdaptive(v)
	}
	return ix.encodeCodec(v)
}

func (ix *Index) encodeCodec(v *bitvec.Vector) column {
	if ix.codec == Concise {
		return newConciseColumn(concise.Compress(v), false)
	}
	return column{kind: kindDense, dense: v.Clone()}
}

// encodeAdaptive trial-compresses the column and keeps it compressed only
// when fill-dominated — clustered or sorted data, and notably the all-ones
// column (one fill word instead of n/8 dense bytes, on disk and in RAM),
// where the run-native kernels beat dense word scans at any density. A
// literal-heavy stream is larger than the raw vector and slower to read, so
// the column stays dense — and the trial is abandoned at the word that takes
// it past the threshold.
func (ix *Index) encodeAdaptive(v *bitvec.Vector) column {
	if b, ok := concise.CompressWithin(v, runNativeLimit(v.Len())); ok {
		return column{kind: kindConcise, conc: b, runNative: true}
	}
	return column{kind: kindDense, dense: v.Clone()}
}

// Binned reports whether the index is bin-granular.
func (ix *Index) Binned() bool { return ix.binned }

// Adaptive reports whether each column picked its own representation.
func (ix *Index) Adaptive() bool { return ix.adaptive }

// CodecUsed returns the configured codec.
func (ix *Index) CodecUsed() Codec { return ix.codec }

// Dataset returns the indexed dataset.
func (ix *Index) Dataset() *data.Dataset { return ix.ds }

// Stats returns the per-dimension statistics the index was built from.
func (ix *Index) Stats() []data.DimStats { return ix.stats }

// SizeBytes returns the total column payload — the paper's cost_s.
func (ix *Index) SizeBytes() int {
	total := 0
	for d := range ix.dims {
		for c := range ix.dims[d].cols {
			total += ix.dims[d].cols[c].sizeBytes()
		}
	}
	return total
}

// Columns returns the total number of physical columns; for tests.
func (ix *Index) Columns() int {
	total := 0
	for d := range ix.dims {
		total += len(ix.dims[d].cols)
	}
	return total
}

// Representations returns how many physical columns are stored in each
// representation. A pure-codec index reports everything under one bucket;
// an adaptive index mixes the two.
func (ix *Index) Representations() (dense, compressed int) {
	for d := range ix.dims {
		for c := range ix.dims[d].cols {
			if ix.dims[d].cols[c].kind == kindDense {
				dense++
			} else {
				compressed++
			}
		}
	}
	return dense, compressed
}

// ForEachDenseColumn visits every physical column of a Raw-codec index as a
// dense bit vector (the visitor must not mutate it). The compression
// experiments (Fig. 10) use this to feed the codecs the exact column
// population of a real index. It panics on compressed indexes.
func (ix *Index) ForEachDenseColumn(fn func(v *bitvec.Vector)) {
	if ix.codec != Raw {
		panic("bitmapidx: ForEachDenseColumn requires the Raw codec")
	}
	for d := range ix.dims {
		for c := range ix.dims[d].cols {
			fn(ix.dims[d].cols[c].dense)
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

// DefaultCacheBudget bounds the shared per-index cache of decompressed
// columns (bytes) unless SetCacheBudget overrides it. A query over a
// compressed index touches the same columns for thousands of candidate
// objects; decompressing each column once per index instead of once per
// candidate is what keeps IBIG's query time comparable to BIG's (the paper's
// §5.1 observation) while the index itself stays compressed. Because the
// cache hangs off the Index, N parallel workers share one decompression of
// each column instead of paying N.
const DefaultCacheBudget = 32 << 20

// Cursor carries the per-query scratch state for Q/P computation. Cursors
// are not safe for concurrent use; create one per goroutine — all cursors of
// one index share its decompressed-column cache, so extra cursors are cheap.
// Every buffer below is reused across candidates, so a warmed-up cursor is
// allocation-free per candidate on both the serial and parallel paths.
type Cursor struct {
	ix *Index
	// q and p hold QP's result; w the scoring kernel's W ∩ ∩Qᵢ.
	q, p, w *bitvec.Vector
	terms   []bitvec.TieTerm // the scoring kernel's reusable column buffer
	// scratchQ/scratchP/scratchM are per-dimension materialization
	// fallbacks used only when the shared cache is over its budget;
	// three per dimension because the scoring pass needs a dimension's Q-, P-
	// and missing columns alive at once. Lazily allocated: they cost nothing
	// while the cache holds.
	scratchQ, scratchP, scratchM []*bitvec.Vector
	cols                         []*bitvec.Vector // reusable dense-column buffer
	// the compressed-native count path's column buffer.
	concCols []*concise.Bitmap
	qrefs    []qref
	// fmemo[i] is IncomparableRows(ix.masks[i].mask) + 1 once evaluated, 0
	// before; allocated by the first call.
	fmemo []int32
	// blocks is the dense count and scoring kernels' block scratch.
	blocks bitvec.Scratch
}

// NewCursor returns a cursor over the index.
func (ix *Index) NewCursor() *Cursor {
	n := ix.ds.Len()
	c := &Cursor{
		ix:       ix,
		q:        bitvec.New(n),
		p:        bitvec.New(n),
		w:        bitvec.New(n),
		scratchQ: make([]*bitvec.Vector, len(ix.dims)),
		scratchP: make([]*bitvec.Vector, len(ix.dims)),
		scratchM: make([]*bitvec.Vector, len(ix.dims)),
		cols:     make([]*bitvec.Vector, 0, len(ix.dims)),
		concCols: make([]*concise.Bitmap, 0, len(ix.dims)),
		qrefs:    make([]qref, 0, len(ix.dims)),
		terms:    make([]bitvec.TieTerm, 0, len(ix.dims)),
	}
	return c
}

// Index returns the index the cursor reads.
func (c *Cursor) Index() *Index { return c.ix }

// dense returns column b of dimension d as a dense vector: the stored
// vector for dense columns, and for compressed columns the shared cache
// entry — or, when the cache is over its budget, a decompression into
// *scratch. A cached result stays valid for the caller even if a budget
// change drops it meanwhile; a scratch result is valid until *scratch is
// reused for the same dimension.
func (c *Cursor) dense(d, b int, scratch **bitvec.Vector) *bitvec.Vector {
	col := &c.ix.dims[d].cols[b]
	if col.kind == kindDense {
		return col.dense
	}
	if v := c.ix.sharedDense(d, b); v != nil {
		return v
	}
	if *scratch == nil {
		*scratch = bitvec.New(c.ix.ds.Len())
	}
	col.conc.DecompressInto(*scratch)
	return *scratch
}

// QP computes the paper's sets Q = ∩Qi − {o} and P = ∩Pi for object obj as
// bit vectors (Definition 4), in one fused pass per observed dimension over
// the columns' dense views (Cursor.dense); the first observed dimension seeds
// both accumulators directly, so no SetAll pass is paid. The returned vectors
// are owned by the cursor and valid until the next QP call.
func (c *Cursor) QP(obj int) (q, p *bitvec.Vector) {
	var t repTally
	refs := c.buildRefs(obj)
	var cq0, cp0 *bitvec.Vector
	for i, r := range refs {
		cq := c.column(int(r.d), r.qb, &c.scratchQ[r.d], &t)
		cp := c.column(int(r.d), r.qb+1, &c.scratchP[r.d], &t)
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
	c.ix.flushTally(&t)
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

// qCols collects the Q-columns of refs that constrain anything (bucket 0 is
// all ones) as dense vectors into the cursor's reusable buffer (the dense
// count path).
func (c *Cursor) qCols(refs []qref) []*bitvec.Vector {
	cols := c.cols[:0]
	for _, r := range refs {
		if r.qb != 0 {
			cols = append(cols, c.dense(int(r.d), int(r.qb), &c.scratchQ[r.d]))
		}
	}
	c.cols = cols
	return cols
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
// IntersectCountAbove contract. A bucket-0 Q-column is all ones, the identity
// of AND, and is left out; the rest dispatch on the representation mix:
//
//   - all columns compressed and fill-dominated: CONCISE's run-native
//     multi-way gallop, no decompression at all;
//   - otherwise: read every column's dense view (Cursor.dense) and run the
//     fused dense cascade.
func (c *Cursor) intersectQAbove(refs []qref, tau int) (int, bool) {
	ix := c.ix
	// Representation census, paid once over the (few) observed dimensions.
	var t repTally
	for _, r := range refs {
		col := &ix.dims[r.d].cols[r.qb]
		switch {
		case r.qb == 0:
		case col.kind == kindDense:
			t.dense++
		case col.runNative:
			t.compressed++
			t.native++
		default:
			t.compressed++
		}
	}
	if t.dense+t.compressed == 0 {
		n := ix.ds.Len()
		return n, n > tau
	}
	defer ix.flushTally(&t)
	if t.dense == 0 && t.native == t.compressed {
		return c.countNative(tau, refs)
	}
	t.native, t.fallback = 0, t.compressed
	return c.blocks.IntersectCountAbove(tau, c.qCols(refs)...)
}

// countNative runs CONCISE's multi-way run gallop over the candidate's
// Q-columns — all compressed and fill-dominated, by the caller's
// classification.
func (c *Cursor) countNative(tau int, refs []qref) (int, bool) {
	cols := c.concCols[:0]
	for _, r := range refs {
		if r.qb != 0 {
			cols = append(cols, c.ix.dims[r.d].cols[r.qb].conc)
		}
	}
	c.concCols = cols
	return concise.IntersectCountAbove(tau, cols...)
}
