package bitmapidx

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bitvec"
	"repro/internal/compress/concise"
	"repro/internal/data"
)

// Index persistence. The paper's Table 3 shows index construction is the
// dominant preprocessing cost (the authors report 5,749 s for the full
// Zillow bitmap), so a production deployment builds once and reloads. The
// on-disk layout is a little-endian stream:
//
//	magic "TKDIX\x04" | codec | binned | adaptive | dim | N | dataset fingerprint
//	per dimension: len(rankToBucket), rankToBucket..., #cols,
//	               per column: representation kind + nbits + payload
//	               (dense: word count + 64-bit words; CONCISE: 32-bit
//	               words)
//	crc32 (IEEE) of everything before it
//
// Object ranks are not stored: Load recomputes them from the dataset, whose
// rows must be the rows the index was built from — shape AND the full
// content fingerprint (data.Dataset.Fingerprint) of those N rows are
// verified, so an index file cannot silently bind to the wrong data. The
// header's (N, fingerprint) pair makes the file a checkpoint of a growing
// dataset: LoadPrefix accepts it whenever the first N rows of the data in
// hand hash to it, and the caller patches the rows behind them with
// AppendRows. Version 4 has the byte layout of version 3 (the adaptive
// header flag, one kind byte per column) under the extendable fingerprint
// definition — the key moved, so the version did. Older versions — v1 without
// fingerprints, v2 without representations, v3 keyed by the count-first
// fingerprint — are rejected with ErrVersion, data that does not match with
// ErrStale, and a file holding a retired representation (WAH: header codec
// or column kind 1; the sorted-id sparse list: column kind 3) with
// ErrUnsupportedCodec; callers degrade to a rebuild, exactly as the serving
// layer's index cache does for any unreadable file.
//
// Save writes header codec 0 (raw), adaptive 0 and every column dense. Load
// also reads what earlier builds wrote: a CONCISE file (header codec 2, every
// column CONCISE) and an adaptive one (codec 2, adaptive 1, dense and CONCISE
// columns mixed). Each CONCISE column is decompressed once, as it is read, so
// a loaded index is all dense like a built one and re-saves as one.
// The per-mask row counts (maskcount.go) are derived state like the ranks:
// recomputed by Load, never stored.

var persistMagic = [6]byte{'T', 'K', 'D', 'I', 'X', 4}

// The header codec bytes and the column-kind bytes of format v4. Value 1 was
// WAH in both places and 3 the sorted-id sparse column kind; neither is read
// (ErrUnsupportedCodec).
const (
	codecRaw     = 0
	codecConcise = 2

	kindDense   = 0
	kindConcise = 2
)

// ErrUnsupportedCodec is wrapped by Load when the file names a codec or
// column kind this build does not read — in practice value 1, the WAH codec
// older builds could pin, or column kind 3, the sparse id list older
// adaptive builds could pick. The file is intact but unusable: rebuild.
var ErrUnsupportedCodec = errors.New("bitmapidx: unsupported codec")

// ErrVersion is wrapped by Load when the file is an index stream of another
// format version: intact, perhaps, but keyed or laid out differently.
// Rebuild.
var ErrVersion = errors.New("bitmapidx: unsupported index version")

// ErrStale is wrapped by Load when the file is a readable index of other
// rows than the dataset's: a different shape, more rows than the dataset
// has, or a fingerprint the dataset's rows do not hash to. Rebuild.
var ErrStale = errors.New("bitmapidx: index does not match the dataset")

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func writeU32s(w io.Writer, xs []uint32) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(xs))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, xs)
}

func readU32s(r io.Reader, limit uint64) ([]uint32, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("bitmapidx: implausible array length %d", n)
	}
	xs := make([]uint32, n)
	if err := binary.Read(r, binary.LittleEndian, xs); err != nil {
		return nil, err
	}
	return xs, nil
}

// writeWords writes a dense column's payload, little-endian, through a small
// fixed buffer: the columns are nearly all of a serving index's bytes, and
// binary.Write would allocate each one's encoding whole.
func writeWords(w io.Writer, words []uint64) error {
	var buf [4096]byte
	for len(words) > 0 {
		n := min(len(words), len(buf)/8)
		for i, x := range words[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], x)
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		words = words[n:]
	}
	return nil
}

// saveBuffer sizes Save's writer to hold several columns, so the payload
// reaches the file in a few large writes.
const saveBuffer = 64 << 10

// Save serializes the index.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, saveBuffer)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write(persistMagic[:]); err != nil {
		return err
	}
	binned := uint8(0)
	if ix.binned {
		binned = 1
	}
	hdr := []uint64{codecRaw, uint64(binned), 0, uint64(len(ix.dims)), uint64(ix.ds.Len()), ix.ds.Fingerprint()}
	if err := binary.Write(cw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for d := range ix.dims {
		di := &ix.dims[d]
		r2b := make([]uint32, len(di.rankToBucket))
		for i, b := range di.rankToBucket {
			r2b[i] = uint32(b)
		}
		if err := writeU32s(cw, r2b); err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint64(len(di.cols))); err != nil {
			return err
		}
		for _, v := range di.cols {
			if err := saveColumn(cw, v); err != nil {
				return err
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}

// saveColumn writes one column: kind byte, nbits, word count, words.
func saveColumn(w io.Writer, v *bitvec.Vector) error {
	if err := binary.Write(w, binary.LittleEndian, uint8(kindDense)); err != nil {
		return err
	}
	words := v.Words()
	if err := binary.Write(w, binary.LittleEndian, []uint64{uint64(v.Len()), uint64(len(words))}); err != nil {
		return err
	}
	return writeWords(w, words)
}

// Load deserializes an index previously written by Save and re-binds it to
// ds, which must be the dataset the index was built from. The stored CRC is
// verified; shape mismatches are rejected.
func Load(r io.Reader, ds *data.Dataset) (*Index, error) { return load(r, ds, false) }

// LoadPrefix is Load for a dataset that may have grown since the index was
// saved: the file's N rows must be ds's first N, and the returned index is
// bound to that prefix (ix.Dataset() is ds itself when N is all of it, else
// ds.Slice(0, N)). The caller brings it level with AppendRows(ix, ds).
func LoadPrefix(r io.Reader, ds *data.Dataset) (*Index, error) { return load(r, ds, true) }

func load(r io.Reader, ds *data.Dataset, prefixOK bool) (*Index, error) {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	var magic [6]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("bitmapidx: reading magic: %w", err)
	}
	if magic != persistMagic {
		if bytes.Equal(magic[:5], persistMagic[:5]) {
			return nil, fmt.Errorf("%w %d, want %d — rebuild", ErrVersion, magic[5], persistMagic[5])
		}
		return nil, fmt.Errorf("bitmapidx: bad magic %q", magic[:])
	}
	hdr := make([]uint64, 6)
	if err := binary.Read(cr, binary.LittleEndian, hdr); err != nil {
		return nil, fmt.Errorf("bitmapidx: reading header: %w", err)
	}
	codec, binned, adaptive, dim, n := hdr[0], hdr[1] == 1, hdr[2] == 1, int(hdr[3]), int(hdr[4])
	if codec != codecRaw && codec != codecConcise {
		return nil, fmt.Errorf("%w %d — rebuild", ErrUnsupportedCodec, hdr[0])
	}
	if dim != ds.Dim() || hdr[4] > uint64(ds.Len()) || (!prefixOK && n != ds.Len()) {
		return nil, fmt.Errorf("%w: index is %dx%d, dataset is %dx%d", ErrStale, hdr[4], dim, ds.Len(), ds.Dim())
	}
	if n < ds.Len() {
		ds = ds.Slice(0, n)
	}
	if fp := ds.Fingerprint(); hdr[5] != fp {
		return nil, fmt.Errorf("%w: index fingerprint %016x, the dataset's first %d rows hash to %016x — wrong or changed data", ErrStale, hdr[5], n, fp)
	}

	dims := make([]dimIndex, dim)
	for d := 0; d < dim; d++ {
		r2bRaw, err := readU32s(cr, uint64(n))
		if err != nil {
			return nil, fmt.Errorf("bitmapidx: dimension %d buckets: %w", d, err)
		}
		r2b := make([]int, len(r2bRaw))
		for i, b := range r2bRaw {
			r2b[i] = int(b)
		}
		var ncols uint64
		if err := binary.Read(cr, binary.LittleEndian, &ncols); err != nil {
			return nil, err
		}
		if ncols > uint64(n)+2 {
			return nil, fmt.Errorf("bitmapidx: implausible column count %d", ncols)
		}
		cols := make([]*bitvec.Vector, ncols)
		for c := range cols {
			if cols[c], err = loadColumn(cr, n, codec, adaptive); err != nil {
				return nil, fmt.Errorf("bitmapidx: dimension %d column %d: %w", d, c, err)
			}
		}
		var ok bool
		if dims[d], ok = newDimIndex(cols, r2b); !ok {
			return nil, fmt.Errorf("bitmapidx: dimension %d: rank→bucket map does not fit its %d columns", d, ncols)
		}
	}
	sum := cr.crc
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("bitmapidx: reading checksum: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("bitmapidx: checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}

	// Rebuild the derived in-memory state (stats, ranks) from the dataset —
	// the same one sort per dimension a build starts with — and verify it
	// matches what the index was built from.
	sorted := ds.SortDims()
	for d := range dims {
		if len(dims[d].rankToBucket) != sorted.Stats[d].Cardinality() {
			return nil, fmt.Errorf("bitmapidx: dimension %d has %d distinct values, index was built over %d — wrong dataset",
				d, sorted.Stats[d].Cardinality(), len(dims[d].rankToBucket))
		}
	}
	return &Index{
		ds:     ds,
		stats:  sorted.Stats,
		dims:   dims,
		binned: binned,
		ranks:  sorted.Ranks,
		masks:  countMasks(nil, ds, 0),
	}, nil
}

// loadColumn reads one column as a dense vector. The kind byte must be one
// the header allows: a raw file holds dense columns, a CONCISE one CONCISE
// columns, an adaptive CONCISE one both. A CONCISE column is decompressed
// here, once.
func loadColumn(r io.Reader, n int, codec uint64, adaptive bool) (*bitvec.Vector, error) {
	var kind uint8
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return nil, err
	}
	var ok bool
	switch kind {
	case kindDense:
		ok = codec == codecRaw || adaptive
	case kindConcise:
		ok = codec == codecConcise
	default:
		return nil, fmt.Errorf("%w: column kind %d — rebuild", ErrUnsupportedCodec, kind)
	}
	if !ok {
		return nil, fmt.Errorf("column kind %d inconsistent with codec %d (adaptive %v)", kind, codec, adaptive)
	}
	var nbits uint64
	if err := binary.Read(r, binary.LittleEndian, &nbits); err != nil {
		return nil, err
	}
	if int(nbits) != n {
		return nil, fmt.Errorf("column has %d bits, dataset has %d objects", nbits, n)
	}
	v := bitvec.New(n)
	if kind == kindConcise {
		words, err := readU32s(r, uint64(n)+2)
		if err != nil {
			return nil, err
		}
		concise.Restore(n, words).DecompressInto(v)
		return v, nil
	}
	var nwords uint64
	if err := binary.Read(r, binary.LittleEndian, &nwords); err != nil {
		return nil, err
	}
	if nwords != uint64((n+63)/64) {
		return nil, fmt.Errorf("dense column has %d words, want %d", nwords, (n+63)/64)
	}
	return v, binary.Read(r, binary.LittleEndian, v.Words())
}
