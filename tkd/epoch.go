package tkd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/data"
)

// Epoch replication. A leader ships a published epoch as one
// self-validating stream that names the base it extends: an epoch the
// follower holds, or the empty epoch 0. A stream from the empty base is a
// full transfer — every row, plus the binned index of the same snapshot —
// that imports into a fresh Dataset publishing under the leader's epoch
// number (the follower swaps it in with ReplaceFromAt); a stream from a real
// base carries the rows appended since, for ApplyEpochDelta. Either way the
// follower lands on the leader's epoch number and fingerprint, so a replica
// group's health probes read convergence straight off those counters.
//
// Stream layout (all integers little-endian):
//
//	magic     [8]byte  "TKDEPO3\n"
//	baseEpoch uint64   the epoch the stream extends; 0 is the empty epoch
//	baseFP    uint64   the base's data fingerprint (0 for the empty epoch)
//	epoch     uint64   the epoch the stream produces, above baseEpoch
//	fp        uint64   the produced data's fingerprint
//	flags     uint8    bit 0: an index section follows (empty base only)
//	dlen      uint64   rows section length in bytes
//	rows      []byte   the rows past the base in WriteCSV form
//	index     []byte   (optional) the SaveServing stream, self-checksummed and
//	                   fingerprint-keyed
//
// Nothing publishes before the produced data hashes to fp — the rows alone
// from the empty base; otherwise the receiver's base, which must be exactly
// (baseEpoch, baseFP), plus the rows — and the index section carries
// bitmapidx's own CRC, shape and fingerprint checks, so a torn, corrupted or
// misdirected transfer fails instead of publishing wrong bytes. A delta ships
// no index: the follower patches its own, which answers like the leader's.

// epochMagic versions the epoch stream; bump it to make peers of different
// builds refuse each other's bytes instead of misreading them. Version 2 keyed
// the stream by the extendable fingerprint (see data.Dataset.Fingerprint);
// version 3 made the full transfer a delta from the empty epoch and retired
// the separate delta family.
var epochMagic = [8]byte{'T', 'K', 'D', 'E', 'P', 'O', '3', '\n'}

const (
	headerLen = 8 + 4*8 + 1 + 8 // magic, four identity words, flags, dlen
	flagIndex = 1               // the one flag bit: an index section follows the rows
)

// ErrStreamVersion is wrapped by the stream readers when the bytes are an
// epoch stream of another format version — a leader and a follower from
// different builds. The follower keeps serving the epoch it has; upgrade both
// sides together.
var ErrStreamVersion = errors.New("tkd: unsupported epoch stream version")

// checkMagic matches a stream's first eight bytes against the magic this
// build writes. Another version of the family — TKDEPO under another version
// byte, or the TKDEPD delta streams versions 1 and 2 sent — is
// ErrStreamVersion; anything else is not an epoch stream at all.
func checkMagic(got [8]byte) error {
	if got == epochMagic {
		return nil
	}
	if string(got[:5]) == "TKDEP" && (got[5] == 'O' || got[5] == 'D') && got[7] == '\n' {
		return fmt.Errorf("%w: the stream is %q, this build speaks %q", ErrStreamVersion, got[:7], epochMagic[:7])
	}
	return fmt.Errorf("tkd: not an epoch stream (bad magic %q)", got[:])
}

// maxEpochData bounds the rows section a reader will buffer (the in-memory
// engine cannot serve datasets anywhere near this large anyway).
const maxEpochData = 1 << 32

// readSection reads an n-byte stream section into a buffer that grows with
// the bytes actually received: the length comes off the network, and a
// header declaring gigabytes must cost nothing until the payload arrives. A
// stream that ends early is io.ErrUnexpectedEOF.
func readSection(r io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// EpochExport pins one published epoch of a dataset for replication as a
// stream from a base the receiver holds: the empty epoch (ExportEpoch) or an
// earlier epoch of the append lineage (ExportEpochDelta). Write streams rows
// and index from that one snapshot, immune to concurrent reloads.
type EpochExport struct {
	s                 *snapshot
	baseEpoch, baseFP uint64
	rows              *data.Dataset // the snapshot's rows past the base
}

// ExportEpoch pins the current published epoch for a full transfer: a stream
// from the empty epoch. The returned handle stays valid — and internally
// consistent — however many epochs are published after it.
func (d *Dataset) ExportEpoch() *EpochExport {
	s := d.current()
	return &EpochExport{s: s, rows: s.ds}
}

// Epoch returns the pinned epoch's number.
func (x *EpochExport) Epoch() uint64 { return x.s.epoch }

// Fingerprint returns the pinned epoch's data fingerprint.
func (x *EpochExport) Fingerprint() uint64 { return x.s.ds.Fingerprint() }

// Rows returns the number of rows the stream carries.
func (x *EpochExport) Rows() int { return x.rows.Len() }

// Write streams the pinned epoch; it is the format's one writer.
// includeIndex asks for the index section, which only a stream from the empty
// base carries: a leader serving the dataset unsharded includes its binned
// index (built here if the epoch never needed it yet) so followers skip the
// dominant preprocessing cost, while a sharded leader has no dataset-level
// index to offer and sends rows only, as every delta does.
func (x *EpochExport) Write(w io.Writer, includeIndex bool) error {
	includeIndex = includeIndex && x.baseEpoch == 0
	buf := bytes.NewBuffer(make([]byte, headerLen))
	if err := x.rows.WriteCSV(buf); err != nil {
		return err
	}
	b := buf.Bytes()
	copy(b, epochMagic[:])
	for i, v := range []uint64{x.baseEpoch, x.baseFP, x.s.epoch, x.Fingerprint()} {
		binary.LittleEndian.PutUint64(b[8+8*i:], v)
	}
	if includeIndex {
		b[40] = flagIndex
	}
	binary.LittleEndian.PutUint64(b[41:], uint64(len(b)-headerLen))
	if _, err := w.Write(b); err != nil {
		return err
	}
	if includeIndex {
		return x.s.part.SaveServing(w)
	}
	return nil
}

// EpochDeltaExport is an EpochExport from a real base: the rows appended
// since an epoch the follower holds, and no index section.
type EpochDeltaExport struct{ EpochExport }

// Write streams the pinned delta.
func (x *EpochDeltaExport) Write(w io.Writer) error { return x.EpochExport.Write(w, false) }

// EpochDelta is a parsed epoch stream: the base it names, the epoch and
// fingerprint it produces, and what it carries — rows to append to that
// base, or, from the empty base, a whole imported dataset.
type EpochDelta struct {
	BaseEpoch       uint64
	BaseFingerprint uint64
	Epoch           uint64
	Fingerprint     uint64
	rows            *data.Dataset
	fresh           *Dataset // the import of a stream from the empty base
}

// Rows returns the number of rows the stream carries.
func (x *EpochDelta) Rows() int { return x.rows.Len() }

// Dataset returns the dataset a stream from the empty base imports — its data
// verified against the header fingerprint, first published at the header
// epoch, the shipped index installed — and nil for a delta from a real base,
// which ApplyEpochDelta takes instead.
func (x *EpochDelta) Dataset() *Dataset { return x.fresh }

// ReadEpochDelta reads an epoch stream; it is the format's one reader and a
// follower's network-facing entry point. A stream from a real base comes back
// as rows for ApplyEpochDelta, which checks them against that base; a stream
// from the empty base is verified and imported here (see Dataset). On any
// error nothing is returned — a corrupt stream cannot produce a partial
// import.
func ReadEpochDelta(r io.Reader) (*EpochDelta, error) {
	var h [headerLen]byte
	if _, err := io.ReadFull(r, h[:8]); err != nil {
		return nil, fmt.Errorf("tkd: epoch stream header: %w", err)
	}
	if err := checkMagic([8]byte(h[:8])); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, h[8:]); err != nil {
		return nil, fmt.Errorf("tkd: epoch stream header: %w", err)
	}
	u64 := func(at int) uint64 { return binary.LittleEndian.Uint64(h[at:]) }
	x := &EpochDelta{BaseEpoch: u64(8), BaseFingerprint: u64(16), Epoch: u64(24), Fingerprint: u64(32)}
	flags, dlen := h[40], u64(41)
	switch {
	case x.Epoch <= x.BaseEpoch:
		return nil, fmt.Errorf("tkd: epoch stream epoch %d does not advance its base %d", x.Epoch, x.BaseEpoch)
	case x.BaseEpoch == 0 && x.BaseFingerprint != 0:
		return nil, fmt.Errorf("tkd: epoch stream gives the empty base fingerprint %016x", x.BaseFingerprint)
	case flags&^flagIndex != 0:
		return nil, fmt.Errorf("tkd: epoch stream sets flag bits %#02x this build does not know", flags&^flagIndex)
	case flags&flagIndex != 0 && x.BaseEpoch != 0:
		return nil, fmt.Errorf("tkd: epoch stream from epoch %d carries an index section", x.BaseEpoch)
	case dlen == 0 || dlen > maxEpochData:
		return nil, fmt.Errorf("tkd: epoch stream rows section of %d bytes is out of range", dlen)
	}
	// Buffer the rows section whole: the CSV reader must not consume a byte
	// of the index section that follows it.
	raw, err := readSection(r, dlen)
	if err != nil {
		return nil, fmt.Errorf("tkd: epoch stream rows section: %w", err)
	}
	if x.rows, err = data.ParseCSV(raw); err != nil {
		return nil, fmt.Errorf("tkd: epoch stream rows section: %w", err)
	}
	if x.BaseEpoch != 0 {
		if x.rows.Len() == 0 {
			return nil, fmt.Errorf("tkd: epoch stream from epoch %d carries no rows", x.BaseEpoch)
		}
		return x, nil
	}
	x.rows.Seal() // the one full hash of the import; the publish below finds it done
	if got := x.rows.Fingerprint(); got != x.Fingerprint {
		return nil, fmt.Errorf("tkd: epoch stream data fingerprint %016x does not match header %016x", got, x.Fingerprint)
	}
	// Publish now, under the leader's number (the counter is pre-positioned
	// so the first publish lands on it), with the shipped index installed.
	x.fresh = wrap(x.rows)
	x.fresh.epoch.Store(x.Epoch - 1)
	if flags&flagIndex != 0 {
		if err := x.fresh.LoadIndex(r); err != nil {
			return nil, fmt.Errorf("tkd: epoch stream index section: %w", err)
		}
	}
	x.fresh.current()
	return x, nil
}

// ImportEpoch reads a full transfer — a stream from the empty base — and
// returns its dataset and epoch; a follower hands both to ReplaceFromAt to
// complete the swap. A delta from a real base is refused: it holds rows for
// ApplyEpochDelta, not a dataset.
func ImportEpoch(r io.Reader) (*Dataset, uint64, error) {
	x, err := ReadEpochDelta(r)
	if err != nil {
		return nil, 0, err
	}
	if x.fresh == nil {
		return nil, 0, fmt.Errorf("tkd: epoch stream is a delta from epoch %d, not a full transfer", x.BaseEpoch)
	}
	return x.fresh, x.Epoch, nil
}

// ApplyEpochDelta appends a delta's rows and publishes at its epoch number.
// The current epoch must be exactly the delta's base (number and
// fingerprint) and the resulting data must hash to the delta's fingerprint —
// all verified before anything is published, so a stale or divergent delta
// fails cleanly and the caller full-syncs instead. A stream from the empty
// base is refused: its Dataset replaces, it does not append. It reports
// whether the publish patched the index incrementally.
func (d *Dataset) ApplyEpochDelta(x *EpochDelta) (patched bool, err error) {
	if x.fresh != nil {
		return false, errors.New("tkd: a stream from the empty base is a whole dataset, not rows to append")
	}
	rows := make([]Row, x.rows.Len())
	for i := range rows {
		o := x.rows.Obj(i)
		rows[i] = Row{ID: o.ID, Values: o.Values}
	}
	return d.appendRows(appendSpec{
		rows:        rows,
		at:          x.Epoch,
		wantFP:      x.Fingerprint,
		verify:      true,
		baseEpoch:   x.BaseEpoch,
		baseFP:      x.BaseFingerprint,
		requireBase: true,
	})
}
