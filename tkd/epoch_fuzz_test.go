package tkd_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/tkd"
)

// fuzzLeader is the small dataset the epoch-stream fuzzers seed from: big
// enough that the index section carries several columns, small enough that a
// fuzz iteration stays in microseconds.
func fuzzLeader(tb testing.TB) *tkd.Dataset {
	tb.Helper()
	ds := tkd.GenerateIND(40, 3, 6, 0.2, 5)
	ds.PrepareFor(tkd.IBIG)
	return ds
}

// epochSeeds builds the epoch-stream fuzz seeds from fuzzLeader: a delta from
// a real base and its corruption matrix, a full transfer (from the empty
// base) and its corruption matrix, and header fields this build must refuse.
func epochSeeds(tb testing.TB) (delta, full, refused [][]byte) {
	leader := fuzzLeader(tb)
	var withIx, dataOnly, d bytes.Buffer
	if err := leader.ExportEpoch().Write(&withIx, true); err != nil {
		tb.Fatal(err)
	}
	if err := leader.ExportEpoch().Write(&dataOnly, false); err != nil {
		tb.Fatal(err)
	}
	baseEpoch, baseFP := leader.Epoch(), leader.Fingerprint()
	if _, err := leader.AppendRows(deltaBatch("d", 4, 3, 6, 9)); err != nil {
		tb.Fatal(err)
	}
	x, ok := leader.ExportEpochDelta(baseEpoch, baseFP)
	if !ok {
		tb.Fatal("no delta from the seed base")
	}
	if err := x.Write(&d); err != nil {
		tb.Fatal(err)
	}
	var raw []byte
	mutate := func(to *[][]byte, fn func(b []byte) []byte) { *to = append(*to, fn(bytes.Clone(raw))) }
	put := func(at int, v uint64) func(b []byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[at:], v); return b }
	}
	rowsEnd := func(b []byte) int { return 49 + int(binary.LittleEndian.Uint64(b[41:])) }

	raw = d.Bytes()
	delta = [][]byte{raw}
	mutate(&delta, func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate(&delta, put(24, 0))                 // epoch 0
	mutate(&delta, put(8, 1<<40))              // base past epoch
	mutate(&delta, put(16, baseFP^1))          // divergent base
	mutate(&delta, put(32, x.Fingerprint()^1)) // wrong result fingerprint
	mutate(&delta, func(b []byte) []byte { b[len(b)-2] ^= 0x01; return b })
	mutate(&delta, func(b []byte) []byte { return b[:len(b)-5] })
	mutate(&delta, func(b []byte) []byte { return b[:30] })
	delta = append(delta, maxLenHeader(1), []byte{})
	mutate(&delta, func(b []byte) []byte { b[5], b[6] = 'D', '2'; return b }) // a TKDEPD2 leader's delta
	mutate(&delta, func(b []byte) []byte { b[6] = '4'; return b })
	delta = append(delta, wideStream(1))

	raw = withIx.Bytes()
	full = [][]byte{raw, dataOnly.Bytes()}
	mutate(&full, func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate(&full, put(24, 0))
	mutate(&full, func(b []byte) []byte { b[rowsEnd(b)-2] ^= 0x01; return b })
	mutate(&full, func(b []byte) []byte { return b[:len(b)-16] })
	mutate(&full, func(b []byte) []byte { return b[:20] })
	mutate(&full, func(b []byte) []byte { b[rowsEnd(b)+6] = 1; return b }) // index codec byte → WAH
	full = append(full, maxLenHeader(0), []byte{})
	mutate(&full, func(b []byte) []byte { b[6] = '1'; return b }) // what a TKDEPO1 leader sends
	mutate(&full, func(b []byte) []byte { b[6] = '2'; return b })
	full = append(full, wideStream(0))

	mutate(&refused, func(b []byte) []byte { b[40] |= 2; return b })
	mutate(&refused, fromRealBase)
	mutate(&refused, put(16, 1)) // a fingerprint on the empty base
	return delta, full, refused
}

// FuzzReadEpochDelta feeds arbitrary bytes to the epoch stream reader, the
// follower's network-facing entry point. It must never panic or allocate by
// declared length, and a stream it accepts must be exactly what its header
// claims: the epoch advances the base, and the data hashes to the header
// fingerprint. A stream from the empty base publishes first at the header
// epoch and answers queries; one from a real base, applied to the base it
// names, lands on the header epoch and fingerprint or leaves the base as it
// was.
func FuzzReadEpochDelta(f *testing.F) {
	delta, full, refused := epochSeeds(f)
	for _, seeds := range [][][]byte{delta, full, refused} {
		for _, s := range seeds {
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		x, err := tkd.ReadEpochDelta(bytes.NewReader(blob))
		if err != nil {
			return
		}
		hdr := func(at int) uint64 { return binary.LittleEndian.Uint64(blob[at:]) }
		if x.BaseEpoch != hdr(8) || x.Epoch != hdr(24) || x.Fingerprint != hdr(32) || x.Epoch <= x.BaseEpoch {
			t.Fatalf("accepted stream reads base %d epoch %d fp %016x; header says %d / %d / %016x", x.BaseEpoch, x.Epoch, x.Fingerprint, hdr(8), hdr(24), hdr(32))
		}
		if ds := x.Dataset(); ds != nil {
			if x.BaseEpoch != 0 || ds.Fingerprint() != x.Fingerprint {
				t.Fatalf("accepted import from base %d hashes to %016x, header fingerprint %016x", x.BaseEpoch, ds.Fingerprint(), x.Fingerprint)
			}
			if _, err := ds.TopK(3); err != nil {
				t.Fatalf("accepted stream cannot be queried: %v", err)
			}
			if ds.Epoch() != x.Epoch {
				t.Fatalf("first publish landed on epoch %d, want the stream's %d", ds.Epoch(), x.Epoch)
			}
			return
		}
		if x.BaseEpoch == 0 || x.Rows() == 0 {
			t.Fatalf("accepted delta: base %d, %d rows", x.BaseEpoch, x.Rows())
		}
		follower := fuzzLeader(t)
		baseEpoch, baseFP := follower.Epoch(), follower.Fingerprint()
		if _, err := follower.ApplyEpochDelta(x); err != nil {
			if follower.Epoch() != baseEpoch || follower.Fingerprint() != baseFP {
				t.Fatal("failed apply mutated the follower")
			}
			return
		}
		if follower.Fingerprint() != x.Fingerprint || follower.Epoch() != x.Epoch {
			t.Fatalf("applied delta landed on epoch %d fp %016x, header says %d / %016x",
				follower.Epoch(), follower.Fingerprint(), x.Epoch, x.Fingerprint)
		}
	})
}

// FuzzImportEpoch holds ImportEpoch, the full-transfer wrapper over the one
// reader, to ReadEpochDelta: it accepts exactly the streams from the empty
// base that the reader accepts, and returns their dataset and epoch.
func FuzzImportEpoch(f *testing.F) {
	_, full, _ := epochSeeds(f)
	for _, s := range full {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		ds, epoch, err := tkd.ImportEpoch(bytes.NewReader(blob))
		x, xerr := tkd.ReadEpochDelta(bytes.NewReader(blob))
		if fresh := xerr == nil && x.Dataset() != nil; (err == nil) != fresh {
			t.Fatalf("ImportEpoch error %v, but the reader gives error %v and a dataset: %v", err, xerr, fresh)
		}
		if err == nil && (epoch != x.Epoch || ds.Epoch() != epoch || ds.Fingerprint() != x.Fingerprint) {
			t.Fatalf("ImportEpoch gives epoch %d (dataset at %d, fp %016x), the reader %d / %016x", epoch, ds.Epoch(), ds.Fingerprint(), x.Epoch, x.Fingerprint)
		}
	})
}
