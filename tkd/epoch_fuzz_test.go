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

// FuzzImportEpoch feeds arbitrary bytes to the full-stream reader, the
// follower's network-facing entry point. It must never panic or allocate by
// declared length, and a stream it accepts must be exactly what its header
// claims: the data hashes to the header fingerprint, the first publish lands
// on the header epoch, and the dataset answers queries.
func FuzzImportEpoch(f *testing.F) {
	leader := fuzzLeader(f)
	var withIx, dataOnly bytes.Buffer
	if err := leader.ExportEpoch().Write(&withIx, true); err != nil {
		f.Fatal(err)
	}
	if err := leader.ExportEpoch().Write(&dataOnly, false); err != nil {
		f.Fatal(err)
	}
	raw := withIx.Bytes()
	f.Add(raw)
	f.Add(dataOnly.Bytes())
	// The corruption matrix of TestEpochStreamCorruptionRejected.
	mutate := func(fn func(b []byte) []byte) { f.Add(fn(append([]byte(nil), raw...))) }
	mutate(func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:], 0); return b })
	mutate(func(b []byte) []byte { b[33+int(binary.LittleEndian.Uint64(b[25:]))-2] ^= 0x01; return b })
	mutate(func(b []byte) []byte { return b[:len(b)-16] })
	mutate(func(b []byte) []byte { return b[:20] })
	mutate(func(b []byte) []byte { b[33+int(binary.LittleEndian.Uint64(b[25:]))+6] = 1; return b }) // index codec byte → WAH
	full, _ := maxLenHeaders()
	f.Add(full)
	f.Add([]byte{})
	// The same stream under the previous magic (what a TKDEPO1 leader sends)
	// and under one from the future: version errors, never a parse.
	mutate(func(b []byte) []byte { b[6] = '1'; return b })
	mutate(func(b []byte) []byte { b[6] = '3'; return b })
	wide, _ := wideStreams()
	f.Add(wide)

	f.Fuzz(func(t *testing.T, blob []byte) {
		ds, epoch, err := tkd.ImportEpoch(bytes.NewReader(blob))
		if err != nil {
			return
		}
		if epoch == 0 || epoch != binary.LittleEndian.Uint64(blob[8:]) {
			t.Fatalf("accepted stream reports epoch %d, header says %d", epoch, binary.LittleEndian.Uint64(blob[8:]))
		}
		if fp := binary.LittleEndian.Uint64(blob[16:]); ds.Fingerprint() != fp {
			t.Fatalf("accepted data hashes to %016x, header fingerprint %016x", ds.Fingerprint(), fp)
		}
		if _, err := ds.TopK(3); err != nil {
			t.Fatalf("accepted stream cannot be queried: %v", err)
		}
		if ds.Epoch() != epoch {
			t.Fatalf("first publish landed on epoch %d, want the stream's %d", ds.Epoch(), epoch)
		}
	})
}

// FuzzReadEpochDelta feeds arbitrary bytes to the delta-stream reader. It
// must never panic; a delta it accepts advances its base and carries rows;
// and applying it to the base it names either fails cleanly or produces
// data that hashes to the header fingerprint at the header epoch.
func FuzzReadEpochDelta(f *testing.F) {
	leader := fuzzLeader(f)
	baseEpoch, baseFP := leader.Epoch(), leader.Fingerprint()
	if _, err := leader.AppendRows(deltaBatch("d", 4, 3, 6, 9)); err != nil {
		f.Fatal(err)
	}
	x, ok := leader.ExportEpochDelta(baseEpoch, baseFP)
	if !ok {
		f.Fatal("no delta from the seed base")
	}
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	mutate := func(fn func(b []byte) []byte) { f.Add(fn(append([]byte(nil), raw...))) }
	mutate(func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[24:], 0); return b })                 // epoch 0
	mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:], 1<<40); return b })              // base past epoch
	mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:], baseFP^1); return b })          // divergent base
	mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[32:], x.Fingerprint()^1); return b }) // wrong result fp
	mutate(func(b []byte) []byte { b[len(b)-2] ^= 0x01; return b })
	mutate(func(b []byte) []byte { return b[:len(b)-5] })
	mutate(func(b []byte) []byte { return b[:30] })
	_, delta := maxLenHeaders()
	f.Add(delta)
	f.Add([]byte{})
	mutate(func(b []byte) []byte { b[6] = '1'; return b }) // a TKDEPD1 leader's delta
	mutate(func(b []byte) []byte { b[6] = '3'; return b })
	_, wide := wideStreams()
	f.Add(wide)

	f.Fuzz(func(t *testing.T, blob []byte) {
		d, err := tkd.ReadEpochDelta(bytes.NewReader(blob))
		if err != nil {
			return
		}
		if d.Rows() == 0 || d.Epoch == 0 || d.Epoch <= d.BaseEpoch {
			t.Fatalf("accepted delta: rows=%d base=%d epoch=%d", d.Rows(), d.BaseEpoch, d.Epoch)
		}
		follower := fuzzLeader(t)
		if _, err := follower.ApplyEpochDelta(d); err != nil {
			if follower.Epoch() != baseEpoch || follower.Fingerprint() != baseFP {
				t.Fatal("failed apply mutated the follower")
			}
			return
		}
		if follower.Fingerprint() != d.Fingerprint || follower.Epoch() != d.Epoch {
			t.Fatalf("applied delta landed on epoch %d fp %016x, header says %d / %016x",
				follower.Epoch(), follower.Fingerprint(), d.Epoch, d.Fingerprint)
		}
	})
}
