// Package data defines the incomplete-data model of the TKD paper (§3):
// d-dimensional objects in which any dimensional value may be missing, with
// missingness tracked by an explicit per-object bit vector (the paper's bo).
// No prior knowledge about a missing value is assumed — missingness is a
// static state, not a probability distribution.
//
// The convention throughout the library is smaller-is-better, matching the
// paper's Definition 1 and Fig. 2. Rating-style data where larger is better
// (e.g. MovieLens) should be loaded through Negate.
package data

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MaxDim is the largest supported dimensionality. Observed-dimension masks
// are packed into a single uint64 so that the comparability test of §3
// (bo & bo' != 0) is one machine instruction; 64 dimensions covers every
// dataset in the paper (the widest, MovieLens, has 60).
const MaxDim = 64

// Object is one d-dimensional incomplete data object. Values[i] is only
// meaningful when bit i of Mask is set; by convention unobserved entries are
// stored as NaN.
type Object struct {
	ID     string
	Values []float64
	Mask   uint64
}

// Row is one object on its way into a dataset — an append batch, a WAL
// record: the ID and the full value vector, NaN marking unobserved
// dimensions. tkd.Row and wal.Row are this type.
type Row struct {
	ID     string
	Values []float64
}

// Observed reports whether dimension i of the object is observed.
func (o *Object) Observed(i int) bool { return o.Mask&(1<<uint(i)) != 0 }

// ObservedCount returns |Iset(o)|, the number of observed dimensions.
func (o *Object) ObservedCount() int { return bits.OnesCount64(o.Mask) }

// ComparableWith reports whether o and p share at least one common observed
// dimension (bo & bp != 0), the precondition for dominance in Definition 1.
func (o *Object) ComparableWith(p *Object) bool { return o.Mask&p.Mask != 0 }

// Dominates reports o ≺ p under the incomplete-data dominance relation of
// Khalefa et al. (Definition 1 of the TKD paper; smaller is better): o is no
// larger than p on every common observed dimension and strictly smaller on
// at least one. Objects without a common observed dimension are
// incomparable. The relation is NOT transitive on incomplete data and may
// even be cyclic.
func (o *Object) Dominates(p *Object) bool {
	m := o.Mask & p.Mask
	if m == 0 {
		return false
	}
	strict := false
	for d := 0; m != 0; d, m = d+1, m>>1 {
		if m&1 == 0 {
			continue
		}
		ov, pv := o.Values[d], p.Values[d]
		if ov > pv {
			return false
		}
		if ov < pv {
			strict = true
		}
	}
	return strict
}

// Dataset is an ordered collection of incomplete objects sharing one
// dimensionality. Object identity within the library is positional (the
// int32 index), matching the bit positions of the vertical bitmap columns.
//
// Beside the rows a dataset carries two running summaries that an append
// extends in O(row) instead of recomputing in O(N): the fingerprint chain
// (see Fingerprint, Seal) and the missing-cell count (MissingRate). Both
// describe rows the dataset has already seen, so every operation that keeps
// those rows — Append, Extend, Clone, a Slice from row 0 — carries them
// over, and the one that rewrites rows in place (Negate) starts them again.
type Dataset struct {
	dim  int
	objs []Object

	// fold guards the chain: chain is the FNV-1a state over dim and rows
	// [0, hashed), and foldTime what advancing it has cost. Seal advances it,
	// and so does Fingerprint on a frozen dataset, whose readers may race to
	// the first call; on any other Fingerprint folds what is left on the fly.
	fold     sync.Mutex
	chain    uint64
	hashed   int
	foldTime time.Duration
	frozen   bool
	// missing counts the unobserved cells of all rows; -1 on a row-range view
	// that has not counted its own.
	missing int

	// arena is the rest of the value chunk Extend reserved; Append carves
	// each row's Values out of it, one allocation per batch instead of one
	// per row.
	arena []float64
	// extended is set by the first Extend: the spare capacity behind objs
	// then belongs to that extension alone.
	extended atomic.Bool
}

// New returns an empty dataset of the given dimensionality.
func New(dim int) *Dataset {
	if dim <= 0 || dim > MaxDim {
		panic(fmt.Sprintf("data: dimensionality %d out of range [1,%d]", dim, MaxDim))
	}
	return &Dataset{dim: dim, chain: chainSeed(dim)}
}

// Dim returns the dimensionality d.
func (ds *Dataset) Dim() int { return ds.dim }

// Len returns the number of objects N.
func (ds *Dataset) Len() int { return len(ds.objs) }

// Obj returns a pointer to the i-th object. The pointer stays valid until
// the next Append reallocates; callers must not hold it across mutation.
func (ds *Dataset) Obj(i int) *Object { return &ds.objs[i] }

// Append adds an object built from values, where NaN marks a missing entry.
// It returns the object's index. Objects with no observed dimension are
// rejected, per the paper's standing assumption ("we only consider the
// objects with at least one observed dimensional value"), and so is an ID
// that CheckID refuses.
func (ds *Dataset) Append(id string, values []float64) (int, error) {
	if err := CheckID(id); err != nil {
		return 0, err
	}
	if len(values) != ds.dim {
		return 0, fmt.Errorf("data: object %q has %d values, want %d", id, len(values), ds.dim)
	}
	o := Object{ID: id}
	for i, v := range values {
		if !math.IsNaN(v) {
			o.Mask |= 1 << uint(i)
		}
	}
	if o.Mask == 0 {
		return 0, fmt.Errorf("data: object %q has no observed dimension", id)
	}
	if len(ds.arena) >= ds.dim {
		o.Values, ds.arena = ds.arena[:ds.dim:ds.dim], ds.arena[ds.dim:]
	} else {
		o.Values = make([]float64, ds.dim)
	}
	for i, v := range values {
		if math.IsNaN(v) {
			v = math.NaN()
		}
		o.Values[i] = v
	}
	if ds.extended.Load() {
		// An extension owns the spare capacity behind these rows: move to a
		// backing array of our own rather than write into its tail.
		ds.objs = slices.Clip(ds.objs)
		ds.extended.Store(false)
	}
	ds.objs = append(ds.objs, o)
	if ds.missing >= 0 {
		ds.missing += ds.dim - o.ObservedCount()
	}
	return len(ds.objs) - 1, nil
}

// Extend returns a dataset that starts out as ds's rows and has room for n
// more, so a frozen dataset (a published epoch) grows its successor in
// O(batch): the extension shares ds's rows, their fingerprint chain — which
// Extend first brings up to ds's length, so the extension's Seal folds its
// own rows alone and no row is folded twice — and missing-cell count, and
// its appends go into the spare capacity of the shared backing array, behind
// ds's length where no reader of ds looks.
// That capacity has a single claimant — the first Extend of a dataset takes
// it, any later Extend of the same dataset starts from a capacity-clamped
// view and copies the row headers on its first Append — so two extensions of
// one base never see each other's rows, and discarding an extension leaves
// the base as it was. ds must not be appended to afterwards.
func (ds *Dataset) Extend(n int) *Dataset {
	objs := ds.objs
	if !ds.extended.CompareAndSwap(false, true) {
		objs = slices.Clip(objs)
	}
	ds.fold.Lock()
	defer ds.fold.Unlock()
	ds.sealLocked() // the base's rows are folded once, here or by a reader before
	return &Dataset{
		dim:     ds.dim,
		objs:    slices.Grow(objs, n),
		chain:   ds.chain,
		hashed:  ds.hashed,
		missing: ds.missing,
		arena:   make([]float64, n*ds.dim),
	}
}

// MustAppend is Append that panics on error; for fixtures and generators.
func (ds *Dataset) MustAppend(id string, values []float64) int {
	i, err := ds.Append(id, values)
	if err != nil {
		panic(err)
	}
	return i
}

// Missing is the NaN sentinel for missing values in Append rows.
func Missing() float64 { return math.NaN() }

// Negate flips the sign of every observed value in place, converting
// larger-is-better data (ratings) to the library's smaller-is-better
// convention. Rewriting rows invalidates what the fingerprint chain has
// folded, so the chain starts again (any future in-place mutator must do the
// same).
func (ds *Dataset) Negate() {
	for i := range ds.objs {
		o := &ds.objs[i]
		for d := 0; d < ds.dim; d++ {
			if o.Observed(d) {
				o.Values[d] = -o.Values[d]
			}
		}
	}
	ds.fold.Lock()
	ds.chain, ds.hashed = chainSeed(ds.dim), 0
	ds.fold.Unlock()
}

// Clone returns a deep copy of the dataset, not frozen: the copy is its
// owner's to append to.
func (ds *Dataset) Clone() *Dataset {
	ds.fold.Lock()
	out := &Dataset{dim: ds.dim, chain: ds.chain, hashed: ds.hashed, missing: ds.missing}
	ds.fold.Unlock()
	out.objs = make([]Object, len(ds.objs))
	for i, o := range ds.objs {
		out.objs[i] = Object{ID: o.ID, Values: append([]float64(nil), o.Values...), Mask: o.Mask}
	}
	return out
}

// Slice returns a row-range view [lo, hi) of the dataset sharing the
// receiver's object storage — the zero-copy shard constructor. The view is
// only safe while the parent is immutable (a published epoch): a later
// Append on the parent may reallocate the backing array, but the slice
// header captured here keeps the original rows alive and unchanged, so a
// shard built from a frozen epoch stays valid even if the source dataset
// moves on. A view from row 0 that covers everything the parent's
// fingerprint chain has folded continues that chain; any other view starts
// its own. A view of a frozen dataset is frozen, its rows being as final as
// its parent's: it folds its own chain once, on its first Fingerprint.
func (ds *Dataset) Slice(lo, hi int) *Dataset {
	if lo < 0 || hi > len(ds.objs) || lo > hi {
		panic(fmt.Sprintf("data: slice [%d,%d) out of range [0,%d)", lo, hi, len(ds.objs)))
	}
	out := &Dataset{dim: ds.dim, objs: ds.objs[lo:hi:hi], chain: chainSeed(ds.dim), missing: -1}
	ds.fold.Lock()
	if lo == 0 && hi >= ds.hashed {
		out.chain, out.hashed = ds.chain, ds.hashed
	}
	out.frozen = ds.frozen
	ds.fold.Unlock()
	if lo == 0 && hi == len(ds.objs) {
		out.missing = ds.missing
	}
	return out
}

// MissingRate returns the fraction of (object, dimension) cells that are
// missing — the paper's σ. O(1) from the running count, except on a
// row-range view, which scans its rows.
func (ds *Dataset) MissingRate() float64 {
	if len(ds.objs) == 0 {
		return 0
	}
	missing := ds.missing
	if missing < 0 {
		missing = 0
		for i := range ds.objs {
			missing += ds.dim - ds.objs[i].ObservedCount()
		}
	}
	return float64(missing) / float64(len(ds.objs)*ds.dim)
}

// The fingerprint is an FNV-1a chain that an append extends. The 64-bit
// state starts at the FNV offset basis and absorbs, byte by byte:
//
//	dim as u64 little-endian;
//	then per row, in order: the ID bytes, one 0x00 (so {"ab","c"} and
//	  {"a","bc"} differ), Mask as u64 LE, and for each observed dimension in
//	  ascending order the IEEE-754 bits of the value as u64 LE;
//	last, the row count as u64 LE.
//
// Folding the count last (not first) is what makes the state after n rows a
// prefix of the state after n+m: the chain is kept open on the dataset and
// only a copy is closed with the count.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// foldU64 absorbs v's eight bytes, least significant first (unrolled: the
// chain is bound by the multiply's latency, and a loop adds to it).
func foldU64(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * fnvPrime
	h = (h ^ (v >> 8 & 0xff)) * fnvPrime
	h = (h ^ (v >> 16 & 0xff)) * fnvPrime
	h = (h ^ (v >> 24 & 0xff)) * fnvPrime
	h = (h ^ (v >> 32 & 0xff)) * fnvPrime
	h = (h ^ (v >> 40 & 0xff)) * fnvPrime
	h = (h ^ (v >> 48 & 0xff)) * fnvPrime
	h = (h ^ (v >> 56)) * fnvPrime
	return h
}

func chainSeed(dim int) uint64 { return foldU64(fnvOffset, uint64(dim)) }

// rowsHashed counts the rows every fingerprint pass of the process has
// folded — the observable behind "a publish hashes the batch, not the
// dataset".
var rowsHashed atomic.Int64

// RowsHashed returns the number of rows folded into fingerprint chains by
// this process so far.
func RowsHashed() int64 { return rowsHashed.Load() }

// foldRows absorbs objs into the chain state h.
func foldRows(h uint64, objs []Object, dim int) uint64 {
	for i := range objs {
		o := &objs[i]
		for j := 0; j < len(o.ID); j++ {
			h = (h ^ uint64(o.ID[j])) * fnvPrime
		}
		h *= fnvPrime // the 0x00 terminator: h ^ 0 == h
		h = foldU64(h, o.Mask)
		for d := 0; d < dim; d++ {
			if o.Observed(d) {
				h = foldU64(h, math.Float64bits(o.Values[d]))
			}
		}
	}
	rowsHashed.Add(int64(len(objs)))
	return h
}

// Seal folds every row the chain has not absorbed yet into it, after which
// Fingerprint is an O(1) read until the next Append — and stays O(1) across
// appends if Seal is called again, which then costs O(appended rows). The
// owner of a dataset that is still growing calls it (an append-publish seals
// its batch); a frozen dataset needs no call, its first Fingerprint seals it.
func (ds *Dataset) Seal() {
	ds.fold.Lock()
	defer ds.fold.Unlock()
	ds.sealLocked()
}

func (ds *Dataset) sealLocked() {
	if ds.hashed == len(ds.objs) {
		return // nothing to fold, and nothing written under a reader's feet
	}
	start := time.Now()
	ds.chain = foldRows(ds.chain, ds.objs[ds.hashed:], ds.dim)
	ds.hashed = len(ds.objs)
	ds.foldTime += time.Since(start)
}

// Freeze declares the rows final: from here on the dataset may be read by
// any number of goroutines at once, and must not be appended to or negated
// (Extend and Clone give a dataset that may). What Freeze changes is
// Fingerprint, which on a frozen dataset folds the rows the chain lacks into
// the chain itself — the first call pays, concurrent ones wait for it, later
// ones are O(1) — where on any other it folds them on the fly and leaves the
// chain to its owner's Seal. tkd freezes every epoch it publishes, so an
// epoch folds once, when something first reads its fingerprint, rather than
// when it is published. Idempotent.
func (ds *Dataset) Freeze() {
	ds.fold.Lock()
	ds.frozen = true
	ds.fold.Unlock()
}

// FoldTime reports what folding rows into the dataset's chain has cost so
// far — Seal's passes and a frozen dataset's first Fingerprint; an Extend's
// fold of its base counts on the base. 0 for a dataset nothing has folded.
func (ds *Dataset) FoldTime() time.Duration {
	ds.fold.Lock()
	defer ds.fold.Unlock()
	return ds.foldTime
}

// Fingerprint returns the 64-bit digest of the dataset's full contents —
// dimensionality, object order, IDs, observed-dimension masks and observed
// values — as defined above. It is a pure function of the rows, whatever
// path built them (ReadCSV, Append, Extend, Clone, a Slice), and stable
// across process restarts, so a persisted index keyed by fingerprint can
// decide reuse-vs-rebuild without trusting file names or modification times.
// On a sealed dataset it is O(1). Otherwise it is one pass over the rows the
// chain has not folded: on a frozen dataset (Freeze) the pass is memoised in
// the chain, once however many callers race to it; on any other it is a pure
// read, repeated by every call.
func (ds *Dataset) Fingerprint() uint64 {
	ds.fold.Lock()
	defer ds.fold.Unlock()
	if ds.frozen {
		ds.sealLocked()
	}
	h := ds.chain
	if ds.hashed < len(ds.objs) {
		h = foldRows(h, ds.objs[ds.hashed:], ds.dim)
	}
	return foldU64(h, uint64(len(ds.objs)))
}

// DimStats summarizes one dimension of a dataset: the sorted distinct
// observed values (the paper's value domain, |Distinct| = Ci) and the number
// of objects missing that dimension (|Si|).
type DimStats struct {
	Distinct     []float64
	MissingCount int
	// CountPerValue[r] is the number of objects whose value in this
	// dimension is Distinct[r] (the paper's N_ik).
	CountPerValue []int
}

// Cardinality returns Ci, the number of distinct observed values.
func (s *DimStats) Cardinality() int { return len(s.Distinct) }

// Rank returns the rank (index into Distinct) of v, or -1 if v is not an
// observed value of this dimension.
func (s *DimStats) Rank(v float64) int {
	i := sort.SearchFloat64s(s.Distinct, v)
	if i < len(s.Distinct) && s.Distinct[i] == v {
		return i
	}
	return -1
}

// RankGE returns the rank of the smallest distinct value >= v
// (len(Distinct) if none).
func (s *DimStats) RankGE(v float64) int {
	return sort.SearchFloat64s(s.Distinct, v)
}

// Stats computes per-dimension statistics in one pass over the dataset. A
// build takes its statistics from SortDims, which yields ranks and bucket
// order in the same pass; Stats summarises an append batch for the index
// patch, and is the plain form SortDims is tested against.
func (ds *Dataset) Stats() []DimStats {
	out := make([]DimStats, ds.dim)
	for d := 0; d < ds.dim; d++ {
		vals := make([]float64, 0, len(ds.objs))
		missing := 0
		for i := range ds.objs {
			o := &ds.objs[i]
			if o.Observed(d) {
				vals = append(vals, o.Values[d])
			} else {
				missing++
			}
		}
		sort.Float64s(vals)
		st := DimStats{MissingCount: missing}
		for i := 0; i < len(vals); {
			j := i
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			st.Distinct = append(st.Distinct, vals[i])
			st.CountPerValue = append(st.CountPerValue, j-i)
			i = j
		}
		out[d] = st
	}
	return out
}

// Buckets groups object indices by their observed-dimension mask — the
// bucketing step of the ESB algorithm (§4.1): objects within one bucket form
// a complete dataset over their shared observed dimensions, so dominance is
// transitive inside it.
func (ds *Dataset) Buckets() map[uint64][]int32 {
	out := make(map[uint64][]int32)
	for i := range ds.objs {
		m := ds.objs[i].Mask
		out[m] = append(out[m], int32(i))
	}
	return out
}

// Validate re-checks the dataset invariants: value slices sized to Dim, NaN
// exactly on unobserved entries, and at least one observed dimension per
// object. Generators and loaders call it after construction.
func (ds *Dataset) Validate() error {
	for i := range ds.objs {
		o := &ds.objs[i]
		if len(o.Values) != ds.dim {
			return fmt.Errorf("data: object %d has %d values, want %d", i, len(o.Values), ds.dim)
		}
		if o.Mask == 0 {
			return fmt.Errorf("data: object %d has no observed dimension", i)
		}
		if ds.dim < 64 && o.Mask>>uint(ds.dim) != 0 {
			return fmt.Errorf("data: object %d mask has bits beyond dim", i)
		}
		for d := 0; d < ds.dim; d++ {
			if o.Observed(d) != !math.IsNaN(o.Values[d]) {
				return fmt.Errorf("data: object %d dim %d mask/NaN disagree", i, d)
			}
		}
	}
	return nil
}
