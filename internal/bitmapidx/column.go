package bitmapidx

import (
	"repro/internal/bitvec"
	"repro/internal/compress/concise"
)

// Column representations. A physical column is stored in one of three forms:
//
//   - dense: a raw bit vector, intersected with the fused bitvec kernels;
//   - CONCISE: the compressed word stream;
//   - sparse: the sorted ids of the set bits, for very sparse columns —
//     intersected by scatter/merge without ever materializing the column.
//
// A non-adaptive index stores every column in the configured codec (dense
// for Raw, CONCISE otherwise) — the paper's setups. An adaptive index picks
// per column by measured density at build time: the high-density columns
// that compress poorly stay dense, the near-empty ones become id lists, and
// only the middle band pays for the codec. Compressed columns additionally
// record whether they are fill-dominated — compressed to a quarter of the
// dense payload or better — in which case the run-native kernels in
// compress/concise beat reading a cached dense copy and the
// decompressed-column cache is bypassed entirely.

// colKind identifies a column's physical representation. The values double
// as the persisted column-kind bytes of format v4; 1 was WAH and stays
// reserved (see Codec).
type colKind uint8

const (
	kindDense   colKind = 0
	kindConcise colKind = 2
	kindSparse  colKind = 3
)

const (
	// SparseMaxDensity is the highest set-bit density at which an adaptive
	// index stores a column as a sorted-ID sparse list. Above ~1/32 the id
	// list outgrows the dense vector; 5% keeps a safety band where the
	// merge-style intersection kernels still win on work, not just space.
	SparseMaxDensity = 0.05
	// DenseMinDensity is the density above which an adaptive index stores a
	// column dense: randomly scattered columns past ~25% compress into
	// literal-dominated streams that cost more space *and* more query time
	// than the raw vector.
	DenseMinDensity = 0.25
)

// column is one physical column; exactly one payload field matching kind is
// set. The cursors consume columns through the seedInto/andInto/contains
// helpers below, which dispatch on the representation.
type column struct {
	kind      colKind
	dense     *bitvec.Vector
	conc      *concise.Bitmap
	ids       []int32
	runNative bool // compressed and fill-dominated: prefer run-native kernels
}

// runNativeWorthwhile reports whether a compressed column of compWords
// 32-bit words over nbits logical bits is fill-dominated enough (≤ ¼ of the
// dense payload) that galloping over the run stream beats a cached dense
// read on the query path.
func runNativeWorthwhile(compWords, nbits int) bool {
	return compWords <= ((nbits+63)/64)/2
}

func newConciseColumn(b *concise.Bitmap) column {
	return column{kind: kindConcise, conc: b, runNative: runNativeWorthwhile(b.Words(), b.NBits())}
}

// newSparseColumn extracts the sorted set-bit ids of v.
func newSparseColumn(v *bitvec.Vector) column {
	ids := make([]int32, 0, v.Count())
	v.ForEach(func(i int) bool {
		ids = append(ids, int32(i))
		return true
	})
	return column{kind: kindSparse, ids: ids}
}

func (c *column) sizeBytes() int {
	switch c.kind {
	case kindDense:
		return c.dense.SizeBytes()
	case kindConcise:
		return c.conc.SizeBytes()
	default:
		return len(c.ids) * 4
	}
}

// decompressInto materializes any representation into dst.
func decompressInto(col *column, dst *bitvec.Vector) {
	switch col.kind {
	case kindDense:
		dst.CopyFrom(col.dense)
	case kindConcise:
		col.conc.DecompressInto(dst)
	default:
		dst.CopyFromIDs(col.ids)
	}
}

// andInto sets dst = dst & column through the representation's best kernel:
// dense AND, sorted-ID merge, run-native AND, or — for compressed columns
// that are not fill-dominated — a dense AND against mat, the caller's
// materialized copy (see Cursor.andColumn, which owns the cache/scratch
// decision).
func (c *column) andIntoDirect(dst *bitvec.Vector) bool {
	switch c.kind {
	case kindDense:
		dst.And(c.dense)
	case kindSparse:
		dst.AndIDs(c.ids)
	case kindConcise:
		if !c.runNative {
			return false
		}
		concise.AndInto(dst, c.conc)
	}
	return true
}

// containsID reports whether id is a member of a sorted id list (manual
// binary search: no closure, no allocation on the per-candidate path).
func containsID(ids []int32, id int32) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}
