package tkd_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bitmapidx"
	"repro/tkd"
)

// exportStream publishes ds (via a query) and returns its epoch stream.
func exportStream(t *testing.T, ds *tkd.Dataset, includeIndex bool) ([]byte, *tkd.EpochExport) {
	t.Helper()
	if _, err := ds.TopK(5); err != nil {
		t.Fatal(err)
	}
	x := ds.ExportEpoch()
	var buf bytes.Buffer
	if err := x.Write(&buf, includeIndex); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), x
}

func TestEpochExportImportRoundTrip(t *testing.T) {
	ds := tkd.GenerateIND(300, 4, 20, 0.2, 7)
	raw, x := exportStream(t, ds, true)
	if x.Epoch() != ds.Epoch() || x.Fingerprint() != ds.Fingerprint() {
		t.Fatalf("export pins epoch=%d fp=%x, dataset has epoch=%d fp=%x",
			x.Epoch(), x.Fingerprint(), ds.Epoch(), ds.Fingerprint())
	}
	fresh, epoch, err := tkd.ImportEpoch(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != x.Epoch() {
		t.Fatalf("imported epoch %d, want %d", epoch, x.Epoch())
	}
	if fresh.Fingerprint() != ds.Fingerprint() {
		t.Fatalf("imported fingerprint %x, want %x", fresh.Fingerprint(), ds.Fingerprint())
	}
	want, err := ds.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("imported answer %v, want %v", got.Items, want.Items)
	}
	// The binned index rode the stream: serving the import must not have
	// built one, and the first publish must land on the leader's number.
	if n := fresh.IndexBuilds(); n != 0 {
		t.Fatalf("import rebuilt the index %d times, want 0 (shipped in-stream)", n)
	}
	if fresh.Epoch() != epoch {
		t.Fatalf("follower epoch %d after first publish, want the leader's %d", fresh.Epoch(), epoch)
	}
}

func TestEpochStreamWithoutIndexSection(t *testing.T) {
	ds := tkd.GenerateIND(200, 3, 15, 0.2, 11)
	raw, _ := exportStream(t, ds, false)
	fresh, _, err := tkd.ImportEpoch(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("data-only import answers %v, want %v", got.Items, want.Items)
	}
	if fresh.IndexBuilds() == 0 {
		t.Fatal("data-only stream cannot supply an index; a build was expected")
	}
}

func TestEpochStreamCorruptionRejected(t *testing.T) {
	ds := tkd.GenerateIND(200, 3, 15, 0.2, 13)
	raw, _ := exportStream(t, ds, true)

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := mutate(append([]byte(nil), raw...))
		if _, _, err := tkd.ImportEpoch(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: corrupt stream imported cleanly", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	corrupt("zero epoch", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[8:], 0)
		return b
	})
	// Flip the last digit of the data section (a value of the last row):
	// either the CSV no longer parses or the rebuilt fingerprint misses the
	// header — both must fail the import.
	corrupt("flipped data byte", func(b []byte) []byte {
		dlen := binary.LittleEndian.Uint64(b[25:])
		for i := 33 + int(dlen) - 1; i >= 33; i-- {
			if b[i] >= '0' && b[i] <= '9' {
				b[i] ^= 0x01
				return b
			}
		}
		t.Fatal("no digit found in the data section")
		return b
	})
	corrupt("truncated index section", func(b []byte) []byte { return b[:len(b)-16] })
	corrupt("truncated header", func(b []byte) []byte { return b[:20] })
	if _, _, err := tkd.ImportEpoch(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream imported cleanly")
	}
}

func TestReplaceFromAtAlignsEpochNumbering(t *testing.T) {
	d := tkd.GenerateIND(100, 3, 10, 0.2, 3)
	if _, err := d.TopK(3); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch %d after first publish, want 1", d.Epoch())
	}
	// A forward-assigned number moves the counter to the leader's value.
	d.ReplaceFromAt(tkd.GenerateIND(100, 3, 10, 0.2, 4), 10)
	if d.Epoch() != 10 {
		t.Fatalf("epoch %d after ReplaceFromAt(10), want 10", d.Epoch())
	}
	// A number at or below the counter falls back to the ordinary bump:
	// locally the counter stays strictly monotonic.
	d.ReplaceFromAt(tkd.GenerateIND(100, 3, 10, 0.2, 5), 3)
	if d.Epoch() != 11 {
		t.Fatalf("epoch %d after non-forward ReplaceFromAt, want 11", d.Epoch())
	}
	// Plain ReplaceFrom continues from wherever the counter stands.
	d.ReplaceFrom(tkd.GenerateIND(100, 3, 10, 0.2, 6))
	if d.Epoch() != 12 {
		t.Fatalf("epoch %d after ReplaceFrom, want 12", d.Epoch())
	}
}

// goldenFixture reads one of the persistence fixtures
// (internal/bitmapidx/testdata/README.md describes them).
func goldenFixture(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "internal", "bitmapidx", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestImportGoldenEpoch pins wire compatibility: a committed TKDEPO2 epoch
// stream (default settings, index section included) imports, lands on the
// leader's epoch and fingerprint, and serves from the shipped index with zero
// builds — and the TKDEPO1 stream of the same rows, which an old leader still
// sends, is refused with the typed version error, not misread; so is, on its
// index section, a TKDEPO2 stream whose index holds a retired column kind.
func TestImportGoldenEpoch(t *testing.T) {
	if _, _, err := tkd.ImportEpoch(bytes.NewReader(goldenFixture(t, "golden_epoch_v1_adaptive.bin"))); !errors.Is(err, tkd.ErrStreamVersion) {
		t.Fatalf("TKDEPO1 stream: error = %v, want ErrStreamVersion", err)
	}
	if ds, _, err := tkd.ImportEpoch(bytes.NewReader(goldenFixture(t, "golden_epoch_adaptive_3kind.bin"))); ds != nil || !errors.Is(err, bitmapidx.ErrUnsupportedCodec) {
		t.Fatalf("TKDEPO2 stream with sparse columns: dataset %v, error = %v; want none and ErrUnsupportedCodec", ds != nil, err)
	}
	fresh, epoch, err := tkd.ImportEpoch(bytes.NewReader(goldenFixture(t, "golden_epoch_adaptive.bin")))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || fresh.Fingerprint() != 0xfc7d71f6ed0b09c9 {
		t.Fatalf("imported epoch %d fingerprint %016x, want 1 / fc7d71f6ed0b09c9", epoch, fresh.Fingerprint())
	}
	got, err := fresh.TopK(7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.TopK(7, tkd.WithAlgorithm(tkd.Naive))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Scores(), want.Scores()) {
		t.Fatalf("IBIG over the shipped index scores %v, Naive %v", got.Scores(), want.Scores())
	}
	if n := fresh.IndexBuilds(); n != 0 {
		t.Fatalf("golden import built the index %d times, want 0", n)
	}
}

// TestLoadIndexAcceptsOnlyAdaptive: the dataset builds adaptive indexes and
// warm-loads nothing else — a pure-CONCISE file is refused, a WAH header
// codec or a sparse column kind is an unsupported codec, every v3 file (keyed
// by the old fingerprint) is an unsupported version — and a refused load
// leaves the dataset serving.
func TestLoadIndexAcceptsOnlyAdaptive(t *testing.T) {
	ds, err := tkd.ReadCSV(bytes.NewReader(goldenFixture(t, "golden.csv")))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.LoadIndex(bytes.NewReader(goldenFixture(t, "golden_v4_concise.idx"))); err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("pure-CONCISE index: error = %v, want a rebuild refusal", err)
	}
	wah := goldenFixture(t, "golden_v4_concise.idx")
	wah[6] = 1 // the header codec byte a WAH-pinned build wrote
	if err := ds.LoadIndex(bytes.NewReader(wah)); !errors.Is(err, bitmapidx.ErrUnsupportedCodec) {
		t.Fatalf("WAH index: error = %v, want ErrUnsupportedCodec", err)
	}
	if err := ds.LoadIndex(bytes.NewReader(goldenFixture(t, "golden_v4_adaptive_3kind.idx"))); !errors.Is(err, bitmapidx.ErrUnsupportedCodec) {
		t.Fatalf("three-kind adaptive index: error = %v, want ErrUnsupportedCodec", err)
	}
	for _, old := range []string{"golden_v3_adaptive.idx", "golden_v3_concise.idx", "golden_v3_wah.idx"} {
		if err := ds.LoadIndex(bytes.NewReader(goldenFixture(t, old))); !errors.Is(err, bitmapidx.ErrVersion) {
			t.Fatalf("%s: error = %v, want ErrVersion", old, err)
		}
	}
	if _, err := ds.TopK(5, tkd.WithAlgorithm(tkd.UBB)); err != nil {
		t.Fatalf("dataset stopped serving after refused loads: %v", err)
	}
	if err := ds.LoadIndex(bytes.NewReader(goldenFixture(t, "golden_v4_adaptive.idx"))); err != nil {
		t.Fatalf("adaptive index: %v", err)
	}
	if _, err := ds.TopK(5); err != nil {
		t.Fatal(err)
	}
	if n := ds.IndexBuilds(); n != 0 {
		t.Fatalf("warm-loaded dataset built the index %d times, want 0", n)
	}
}

// maxLenHeaders returns a full-stream and a delta-stream header that each
// declare the largest accepted section (4 GiB) and then end.
func maxLenHeaders() (full, delta []byte) {
	u64 := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	full = u64([]byte("TKDEPO2\n"), 1, 0xfeed)
	full = append(full, 1) // flags
	full = u64(full, 1<<32)
	delta = u64([]byte("TKDEPD2\n"), 1, 0xfeed, 2, 0xbeef, 1<<32)
	return full, delta
}

// wideStreams returns a full and a delta stream, each well framed, whose CSV
// section has 65 value columns: one more than a dataset can have.
func wideStreams() (full, delta []byte) {
	const dim = 65
	return csvStreams("id" + strings.Repeat(",v", dim) + "\na" + strings.Repeat(",1", dim) + "\n")
}

// csvStreams frames csv as the data section of a full stream (no index
// section) and as the rows section of a delta.
func csvStreams(csv string) (full, delta []byte) {
	full = binary.LittleEndian.AppendUint64([]byte("TKDEPO2\n"), 1)
	full = binary.LittleEndian.AppendUint64(full, 0xfeed)
	full = append(full, 0) // flags: no index section
	full = append(binary.LittleEndian.AppendUint64(full, uint64(len(csv))), csv...)
	delta = []byte("TKDEPD2\n")
	for _, v := range []uint64{1, 0xfeed, 2, 0xbeef, uint64(len(csv))} {
		delta = binary.LittleEndian.AppendUint64(delta, v)
	}
	return full, append(delta, csv...)
}

// TestEpochStreamsRejectWideCSV: a stream whose CSV section is wider than a
// dataset can be fails both readers with the header-width error, where it
// used to panic the follower's poll goroutine before the fingerprint check.
func TestEpochStreamsRejectWideCSV(t *testing.T) {
	full, delta := wideStreams()
	const want = "65 value columns, at most 64"
	if _, _, err := tkd.ImportEpoch(bytes.NewReader(full)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("full stream: error = %v, want the header-width error", err)
	}
	if _, err := tkd.ReadEpochDelta(bytes.NewReader(delta)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("delta stream: error = %v, want the header-width error", err)
	}
}

// TestEpochStreamsAllocateByBytesReceived is the regression test for the
// pre-allocation bug: both readers used to make([]byte, dlen) straight from
// the header, so 33 (full) or 48 (delta) crafted bytes cost a follower
// 4 GiB. A declared length must cost nothing until payload arrives, and the
// short body must surface as a truncation.
func TestEpochStreamsAllocateByBytesReceived(t *testing.T) {
	full, delta := maxLenHeaders()
	if len(full) != 33 || len(delta) != 48 {
		t.Fatalf("crafted headers are %d and %d bytes, want 33 and 48", len(full), len(delta))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, errFull := tkd.ImportEpoch(bytes.NewReader(full))
	_, errDelta := tkd.ReadEpochDelta(bytes.NewReader(delta))
	runtime.ReadMemStats(&after)
	if !errors.Is(errFull, io.ErrUnexpectedEOF) {
		t.Errorf("full stream: error = %v, want a truncation (io.ErrUnexpectedEOF)", errFull)
	}
	if !errors.Is(errDelta, io.ErrUnexpectedEOF) {
		t.Errorf("delta stream: error = %v, want a truncation (io.ErrUnexpectedEOF)", errDelta)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("two empty-bodied streams allocated %d bytes; the declared length leaked into an allocation", grew)
	}
}

// TestEpochCSVSectionsAllocateByBytesReceived: a CSV section costs what its
// bytes could hold, not what its line count could. A 64-column header over
// 1 MiB of two-byte junk lines is half a million lines; sizing the rows from
// that count reserved about 560 bytes a line, ≈ 280 MiB a parse. Capped by the
// bytes, a section reserves no more than valid rows of its size would (≈ 9 ×
// the section under 64 columns) on each path it takes — the scanner then
// encoding/csv, or encoding/csv alone once a '"' rules the scanner out.
func TestEpochCSVSectionsAllocateByBytesReceived(t *testing.T) {
	head := "id" + strings.Repeat(",v", 64) + "\n"
	junk := strings.Repeat("x\n", 1<<19)
	for _, tc := range []struct{ name, csv string }{
		{"scanner", head + junk},
		{"quoted", head + "\"x\"\n" + junk},
	} {
		full, delta := csvStreams(tc.csv)
		for _, read := range []struct {
			stream string
			read   func() error
		}{
			{"full", func() error { _, _, err := tkd.ImportEpoch(bytes.NewReader(full)); return err }},
			{"delta", func() error { _, err := tkd.ReadEpochDelta(bytes.NewReader(delta)); return err }},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read.read()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "line 2") {
				t.Errorf("%s %s stream: error = %v, want the CSV's line 2 rejected", tc.name, read.stream, err)
			}
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(tc.csv)); grew > limit {
				t.Errorf("%s %s stream: a %d-byte CSV section allocated %d bytes, over %d", tc.name, read.stream, len(tc.csv), grew, limit)
			}
		}
	}
}

// TestEpochStreamVersionMismatch: both stream readers tell "another version
// of this format" (the same magic family under a different version byte — a
// TKDEPO1/TKDEPD1 peer, or one from the future) from "not a stream at all":
// the first is the typed ErrStreamVersion a follower logs and counts while it
// keeps serving, the second stays an ordinary bad-magic error.
func TestEpochStreamVersionMismatch(t *testing.T) {
	full, delta := maxLenHeaders()
	for _, v := range []byte{'1', '3'} {
		f, d := bytes.Clone(full), bytes.Clone(delta)
		f[6], d[6] = v, v
		if _, _, err := tkd.ImportEpoch(bytes.NewReader(f)); !errors.Is(err, tkd.ErrStreamVersion) {
			t.Errorf("full stream version %c: error = %v, want ErrStreamVersion", v, err)
		}
		if _, err := tkd.ReadEpochDelta(bytes.NewReader(d)); !errors.Is(err, tkd.ErrStreamVersion) {
			t.Errorf("delta stream version %c: error = %v, want ErrStreamVersion", v, err)
		}
	}
	// A delta handed to the full reader, and the reverse, are not version
	// skew.
	if _, _, err := tkd.ImportEpoch(bytes.NewReader(delta)); err == nil || errors.Is(err, tkd.ErrStreamVersion) {
		t.Errorf("delta bytes through ImportEpoch: error = %v, want a bad-magic refusal", err)
	}
	if _, err := tkd.ReadEpochDelta(bytes.NewReader(full)); err == nil || errors.Is(err, tkd.ErrStreamVersion) {
		t.Errorf("full-stream bytes through ReadEpochDelta: error = %v, want a bad-magic refusal", err)
	}
}
