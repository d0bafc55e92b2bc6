package bitmapidx

import (
	"repro/internal/bitvec"
	"repro/internal/compress/concise"
)

// Column representations. A physical column is stored in one of two forms:
//
//   - dense: a raw bit vector, intersected with the fused bitvec kernels;
//   - CONCISE: the compressed word stream.
//
// A non-adaptive index stores every column in the configured codec (dense
// for Raw, CONCISE otherwise) — the paper's setups. An adaptive (serving)
// index keeps a column compressed only when its trial compression is
// fill-dominated — a quarter of the dense payload or better: the all-ones
// column, clustered or sorted data — and stores it dense otherwise, so every
// column is read by a kernel over the form it is stored in: the run-native
// kernels in compress/concise for the first, the word kernels for the
// second. The rule is a measured break-even with no density constant: a
// literal-heavy CONCISE stream costs a word per 31 bits, more than the raw
// vector, and a column of incomplete data is never sparse enough for an id
// list to pay (a row missing on a dimension is set in all of its columns).
// DESIGN.md §1 has the census. Where a compressed column meets a dense one —
// and everywhere on a pure-CONCISE index — it is read as its dense view out
// of the decompressed-column cache (Cursor.dense).

// colKind identifies a column's physical representation. The values double
// as the persisted column-kind bytes of format v4; 1 was WAH and 3 the
// sorted-id sparse list, and both stay reserved (see checkKind).
type colKind uint8

const (
	kindDense   colKind = 0
	kindConcise colKind = 2
)

// column is one physical column; exactly one payload field matching kind is
// set.
type column struct {
	kind      colKind
	dense     *bitvec.Vector
	conc      *concise.Bitmap
	runNative bool // compressed and fill-dominated: served by the run-native kernels
}

// runNativeLimit is the most 32-bit compressed words a column of nbits
// logical bits may take and still count as fill-dominated: ¼ of the dense
// payload, below which galloping over the run stream beats a dense read on
// the query path.
func runNativeLimit(nbits int) int {
	return ((nbits + 63) / 64) / 2
}

// newConciseColumn stores b as a column. Under the adaptive rule a stream
// that is not fill-dominated — a patch took the column out of it, or a file
// of the earlier three-kind rule held it so — is decompressed once and its
// bits stored dense instead.
func newConciseColumn(b *concise.Bitmap, adaptive bool) column {
	if runNative := b.Words() <= runNativeLimit(b.NBits()); runNative || !adaptive {
		return column{kind: kindConcise, conc: b, runNative: runNative}
	}
	v := bitvec.New(b.NBits())
	b.DecompressInto(v)
	return column{kind: kindDense, dense: v}
}

func (c *column) sizeBytes() int {
	if c.kind == kindDense {
		return c.dense.SizeBytes()
	}
	return c.conc.SizeBytes()
}
