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
		if _, err := tkd.ReadEpochDelta(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: corrupt stream read cleanly", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	corrupt("zero epoch", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[24:], 0); return b })
	corrupt("fingerprint on the empty base", func(b []byte) []byte { b[16] = 1; return b })
	// Flip the last digit of the rows section (a value of the last row):
	// either the CSV no longer parses or the rebuilt fingerprint misses the
	// header — both must fail the read.
	corrupt("flipped data byte", func(b []byte) []byte {
		dlen := binary.LittleEndian.Uint64(b[41:])
		for i := 49 + int(dlen) - 1; i >= 49; i-- {
			if b[i] >= '0' && b[i] <= '9' {
				b[i] ^= 0x01
				return b
			}
		}
		t.Fatal("no digit found in the rows section")
		return b
	})
	corrupt("truncated index section", func(b []byte) []byte { return b[:len(b)-16] })
	corrupt("truncated header", func(b []byte) []byte { return b[:20] })
	// A flag bit this build does not know, and the index flag on a stream
	// from a real base (epoch 1 → 2): read as if the bit were clear or the
	// stream a delta, each would go through.
	corrupt("unknown flag bit", func(b []byte) []byte { b[40] |= 2; return b })
	corrupt("index flag from a real base", func(b []byte) []byte { return fromRealBase(b) })
	if _, err := tkd.ReadEpochDelta(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream read cleanly")
	}
}

// fromRealBase rewrites a stream's header to extend epoch 1 (fingerprint
// 0xfeed) into epoch 2, leaving its flags and sections as they are.
func fromRealBase(b []byte) []byte {
	for i, v := range []uint64{1, 0xfeed, 2} {
		binary.LittleEndian.PutUint64(b[8+8*i:], v)
	}
	return b
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

// TestImportGoldenEpoch pins wire compatibility: a committed TKDEPO3 stream
// (default settings, index section included) imports, lands on the leader's
// epoch and fingerprint, and serves from the shipped index with zero builds.
// The TKDEPO2 stream of the same rows, which an old leader still sends, is
// refused with the typed version error, not misread; a current stream whose
// index section holds a retired column kind fails closed on that section.
func TestImportGoldenEpoch(t *testing.T) {
	if _, _, err := tkd.ImportEpoch(bytes.NewReader(goldenFixture(t, "golden_epoch_adaptive.bin"))); !errors.Is(err, tkd.ErrStreamVersion) {
		t.Fatalf("TKDEPO2 stream: error = %v, want ErrStreamVersion", err)
	}
	csv := goldenFixture(t, "golden.csv")
	rows, err := tkd.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	threeKind := append(header(0, rows.Fingerprint(), 1, uint64(len(csv))), csv...)
	threeKind = append(threeKind, goldenFixture(t, "golden_v4_adaptive_3kind.idx")...)
	if ds, _, err := tkd.ImportEpoch(bytes.NewReader(threeKind)); ds != nil || !errors.Is(err, bitmapidx.ErrUnsupportedCodec) {
		t.Fatalf("stream with sparse columns: dataset %v, error = %v; want none and ErrUnsupportedCodec", ds != nil, err)
	}
	fresh, epoch, err := tkd.ImportEpoch(bytes.NewReader(goldenFixture(t, "golden_epoch_v3_adaptive.bin")))
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
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("IBIG over the shipped index answers %v, Naive %v", got.Items, want.Items)
	}
	if n := fresh.IndexBuilds(); n != 0 {
		t.Fatalf("golden import built the index %d times, want 0", n)
	}
}

// TestLoadIndexReadsEveryV4Codec: the dataset warm-loads a v4 index file
// whatever codec wrote it — dense, as it writes them, or adaptive or pure
// CONCISE, as earlier builds did, their CONCISE columns decompressed at load —
// and answers from it as Naive does with zero builds. A WAH header codec or a
// sparse column kind is an unsupported codec, a v3 file (keyed by the old
// fingerprint) an unsupported version, and a refused load leaves the dataset
// serving.
func TestLoadIndexReadsEveryV4Codec(t *testing.T) {
	ds, err := tkd.ReadCSV(bytes.NewReader(goldenFixture(t, "golden.csv")))
	if err != nil {
		t.Fatal(err)
	}
	wah := goldenFixture(t, "golden_v4_concise.idx")
	wah[6] = 1 // the header codec byte a WAH-pinned build wrote
	if err := ds.LoadIndex(bytes.NewReader(wah)); !errors.Is(err, bitmapidx.ErrUnsupportedCodec) {
		t.Fatalf("WAH index: error = %v, want ErrUnsupportedCodec", err)
	}
	if err := ds.LoadIndex(bytes.NewReader(goldenFixture(t, "golden_v4_adaptive_3kind.idx"))); !errors.Is(err, bitmapidx.ErrUnsupportedCodec) {
		t.Fatalf("three-kind adaptive index: error = %v, want ErrUnsupportedCodec", err)
	}
	if err := ds.LoadIndex(bytes.NewReader(goldenFixture(t, "golden_v3_wah.idx"))); !errors.Is(err, bitmapidx.ErrVersion) {
		t.Fatalf("v3 index: error = %v, want ErrVersion", err)
	}
	want, err := ds.TopK(7, tkd.WithAlgorithm(tkd.UBB))
	if err != nil {
		t.Fatalf("dataset stopped serving after refused loads: %v", err)
	}
	for _, file := range []string{"golden_v4_dense.idx", "golden_v4_adaptive.idx", "golden_v4_concise.idx"} {
		if err := ds.LoadIndex(bytes.NewReader(goldenFixture(t, file))); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		got, err := ds.TopK(7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Items, want.Items) {
			t.Fatalf("%s: IBIG answers %v, UBB %v", file, got.Items, want.Items)
		}
	}
	if n := ds.IndexBuilds(); n != 0 {
		t.Fatalf("warm-loaded dataset built the index %d times, want 0", n)
	}
}

// bases are the two kinds of stream every reader test runs over: from the
// empty epoch 0, and from epoch 1.
var bases = []struct {
	name string
	base uint64
}{{"from the empty base", 0}, {"from a real base", 1}}

// header frames a stream from base to the epoch after it, declaring
// fingerprint fp, flags and a dlen-byte rows section. A real base is given
// fingerprint 0xfeed; the empty base's is 0.
func header(base, fp uint64, flags byte, dlen uint64) []byte {
	b := []byte("TKDEPO3\n")
	for _, v := range []uint64{base, min(base, 1) * 0xfeed, base + 1, fp} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return binary.LittleEndian.AppendUint64(append(b, flags), dlen)
}

// maxLenHeader is a header from base that declares the largest accepted
// section (4 GiB) and then ends.
func maxLenHeader(base uint64) []byte { return header(base, 0xbeef, 0, 1<<32) }

// csvStream frames csv as the rows section of a stream from base.
func csvStream(base uint64, csv string) []byte {
	return append(header(base, 0xbeef, 0, uint64(len(csv))), csv...)
}

// wideStream is a well-framed stream from base whose CSV section has 65
// value columns: one more than a dataset can have.
func wideStream(base uint64) []byte {
	const dim = 65
	return csvStream(base, "id"+strings.Repeat(",v", dim)+"\na"+strings.Repeat(",1", dim)+"\n")
}

// TestEpochStreamsRejectWideCSV: a stream whose CSV section is wider than a
// dataset can be fails the reader with the header-width error, where it used
// to panic the follower's poll goroutine before the fingerprint check.
func TestEpochStreamsRejectWideCSV(t *testing.T) {
	for _, b := range bases {
		if _, err := tkd.ReadEpochDelta(bytes.NewReader(wideStream(b.base))); err == nil || !strings.Contains(err.Error(), "65 value columns, at most 64") {
			t.Errorf("%s: error = %v, want the header-width error", b.name, err)
		}
	}
}

// TestEpochStreamsAllocateByBytesReceived is the regression test for the
// pre-allocation bug: the readers used to make([]byte, dlen) straight from
// the header, so a few dozen crafted bytes cost a follower 4 GiB. A declared
// length must cost nothing until payload arrives, and the short body must
// surface as a truncation.
func TestEpochStreamsAllocateByBytesReceived(t *testing.T) {
	for _, b := range bases {
		h := maxLenHeader(b.base)
		if len(h) != 49 {
			t.Fatalf("crafted header is %d bytes, want 49", len(h))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tkd.ReadEpochDelta(bytes.NewReader(h))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: error = %v, want a truncation (io.ErrUnexpectedEOF)", b.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: an empty-bodied stream allocated %d bytes; the declared length leaked into an allocation", b.name, grew)
		}
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
		for _, b := range bases {
			stream := csvStream(b.base, tc.csv)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := tkd.ReadEpochDelta(bytes.NewReader(stream))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "line 2") {
				t.Errorf("%s, %s: error = %v, want the CSV's line 2 rejected", tc.name, b.name, err)
			}
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(tc.csv)); grew > limit {
				t.Errorf("%s, %s: a %d-byte CSV section allocated %d bytes, over %d", tc.name, b.name, len(tc.csv), grew, limit)
			}
		}
	}
}

// TestEpochStreamVersionMismatch: the reader tells "another version of this
// format" — TKDEPO under another version byte, a retired TKDEPD delta, or a
// stream from the future — from "not a stream at all": the first is the typed
// ErrStreamVersion a follower logs and counts while it keeps serving, the
// second stays an ordinary bad-magic error. ImportEpoch refuses a delta from
// a real base, and not as version skew.
func TestEpochStreamVersionMismatch(t *testing.T) {
	for _, b := range bases {
		for _, magic := range []string{"TKDEPO1\n", "TKDEPO2\n", "TKDEPD1\n", "TKDEPD2\n", "TKDEPO4\n"} {
			s := maxLenHeader(b.base)
			copy(s, magic)
			if _, err := tkd.ReadEpochDelta(bytes.NewReader(s)); !errors.Is(err, tkd.ErrStreamVersion) {
				t.Errorf("%s under %q: error = %v, want ErrStreamVersion", b.name, magic[:7], err)
			}
		}
		s := maxLenHeader(b.base)
		s[0] ^= 0xFF
		if _, err := tkd.ReadEpochDelta(bytes.NewReader(s)); err == nil || errors.Is(err, tkd.ErrStreamVersion) {
			t.Errorf("%s under a bad magic: error = %v, want a bad-magic refusal", b.name, err)
		}
	}
	if _, _, err := tkd.ImportEpoch(bytes.NewReader(csvStream(1, "id,v\na,1\n"))); err == nil || errors.Is(err, tkd.ErrStreamVersion) {
		t.Errorf("a delta through ImportEpoch: error = %v, want a not-a-full-transfer refusal", err)
	}
}
