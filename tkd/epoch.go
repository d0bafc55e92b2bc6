package tkd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/data"
)

// Epoch replication: a leader exports one published epoch as a single
// self-validating stream — the frozen data plus the serialized binned
// index, both taken from the same snapshot — and a follower imports it into
// a fresh Dataset that publishes under the leader's epoch number. The
// follower then swaps it in with ReplaceFromAt, completing an RCU epoch
// swap whose number and fingerprint match the leader's, which is what lets
// a replica group's health probes read convergence straight off the epoch
// and fingerprint counters.
//
// Stream layout (all integers little-endian):
//
//	magic [8]byte  "TKDEPO2\n"
//	epoch uint64   the snapshot's epoch number (never 0: 0 marks "unpublished")
//	fp    uint64   data fingerprint, verified against the rebuilt data on import
//	flags uint8    bit 0: an index section follows the data
//	dlen  uint64   data section length in bytes
//	data  []byte   the dataset in WriteCSV form
//	index []byte   (optional) the SaveIndex stream, self-checksummed and
//	               fingerprint-keyed — Import validates it against the
//	               rebuilt data exactly like the persisted-index cache does
//
// Everything after the fixed header is verifiable: the data section must
// hash to fp, and the index section carries bitmapidx's own CRC, shape and
// fingerprint checks. A torn or corrupted transfer therefore fails the
// import; it can never publish wrong bytes.

// epochMagic versions the epoch stream; bump it to make old leaders and new
// followers mutually unintelligible instead of subtly wrong. Version 2 is
// version 1's layout keyed by the extendable fingerprint (see
// data.Dataset.Fingerprint): the identity key moved, so a version-1 peer's
// fingerprints mean something else and must not be compared.
var epochMagic = [8]byte{'T', 'K', 'D', 'E', 'P', 'O', '2', '\n'}

// ErrStreamVersion is wrapped by ImportEpoch and ReadEpochDelta when the
// bytes are an epoch stream of another format version — a leader and a
// follower from different builds. The follower keeps serving the epoch it
// has; upgrade both sides together.
var ErrStreamVersion = errors.New("tkd: unsupported epoch stream version")

// checkMagic matches a stream's first eight bytes against the magic this
// build writes; the same family under another version byte is
// ErrStreamVersion, anything else is not a stream at all.
func checkMagic(got, want [8]byte, what string) error {
	if got == want {
		return nil
	}
	if bytes.Equal(got[:6], want[:6]) && got[7] == want[7] {
		return fmt.Errorf("%w: %s stream is version %q, this build speaks %q", ErrStreamVersion, what, got[6], want[6])
	}
	return fmt.Errorf("tkd: not an %s stream (bad magic %q)", what, got[:])
}

// maxEpochData bounds the data section an import will buffer (the in-memory
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

// EpochExport pins one published epoch of a dataset for replication: the
// epoch number, the data fingerprint and a Write method that streams both
// data and index from that same snapshot, immune to concurrent reloads.
type EpochExport struct {
	s *snapshot
}

// ExportEpoch pins the current published epoch for export. The returned
// handle stays valid — and internally consistent — however many epochs are
// published after it.
func (d *Dataset) ExportEpoch() *EpochExport {
	return &EpochExport{s: d.current()}
}

// Epoch returns the pinned epoch's number.
func (x *EpochExport) Epoch() uint64 { return x.s.epoch }

// Fingerprint returns the pinned epoch's data fingerprint.
func (x *EpochExport) Fingerprint() uint64 { return x.s.ds.Fingerprint() }

// Write streams the pinned epoch. includeIndex controls the index section:
// a leader serving the dataset unsharded includes its binned index (built
// here if the epoch never needed it yet) so followers skip the dominant
// preprocessing cost; a sharded leader has no dataset-level index to offer
// and sends data only.
func (x *EpochExport) Write(w io.Writer, includeIndex bool) error {
	var buf bytes.Buffer
	if err := x.s.ds.WriteCSV(&buf); err != nil {
		return err
	}
	if _, err := w.Write(epochMagic[:]); err != nil {
		return err
	}
	hdr := []any{x.s.epoch, x.Fingerprint()}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	var flags uint8
	if includeIndex {
		flags |= 1
	}
	if err := binary.Write(w, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(buf.Len())); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	if includeIndex {
		return x.s.part.SaveServing(w)
	}
	return nil
}

// ImportEpoch reconstructs a Dataset from an ExportEpoch stream. The data
// section is rebuilt and verified against the header fingerprint; an index
// section, when present, is validated by bitmapidx's fingerprint-keyed load
// against the rebuilt data and installed for the first publish (so the
// import never triggers an index rebuild). The returned dataset's first
// published epoch carries the stream's epoch number; a follower hands both
// to ReplaceFromAt to complete the swap. On any error nothing is returned —
// a corrupt stream cannot produce a partially imported dataset.
func ImportEpoch(r io.Reader) (*Dataset, uint64, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, 0, fmt.Errorf("tkd: epoch stream header: %w", err)
	}
	if err := checkMagic(magic, epochMagic, "epoch"); err != nil {
		return nil, 0, err
	}
	var epoch, fp, dlen uint64
	var flags uint8
	for _, v := range []any{&epoch, &fp} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, 0, fmt.Errorf("tkd: epoch stream header: %w", err)
		}
	}
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return nil, 0, fmt.Errorf("tkd: epoch stream header: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &dlen); err != nil {
		return nil, 0, fmt.Errorf("tkd: epoch stream header: %w", err)
	}
	if epoch == 0 {
		return nil, 0, fmt.Errorf("tkd: epoch stream carries no published epoch")
	}
	if dlen == 0 || dlen > maxEpochData {
		return nil, 0, fmt.Errorf("tkd: epoch stream data section of %d bytes is out of range", dlen)
	}
	// Buffer the data section whole: the CSV reader must not consume a byte
	// of the index section that follows it.
	raw, err := readSection(r, dlen)
	if err != nil {
		return nil, 0, fmt.Errorf("tkd: epoch stream data section: %w", err)
	}
	ds, err := data.ParseCSV(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("tkd: epoch stream data section: %w", err)
	}
	ds.Seal() // the one full hash of the import; the publish below finds it done
	if got := ds.Fingerprint(); got != fp {
		return nil, 0, fmt.Errorf("tkd: epoch stream data fingerprint %016x does not match header %016x", got, fp)
	}
	// Publish now, under the leader's number (the counter is pre-positioned
	// so the first publish lands on it).
	fresh := wrap(ds)
	fresh.epoch.Store(epoch - 1)
	if flags&1 != 0 {
		if err := fresh.LoadIndex(r); err != nil {
			return nil, 0, fmt.Errorf("tkd: epoch stream index section: %w", err)
		}
	}
	fresh.current()
	return fresh, epoch, nil
}
