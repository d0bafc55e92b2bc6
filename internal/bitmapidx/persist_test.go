package bitmapidx_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/paperdata"
)

func roundTrip(t *testing.T, opts bitmapidx.Options) {
	t.Helper()
	ds := gen.Synthetic(gen.Config{N: 500, Dim: 4, Cardinality: 16, MissingRate: 0.25, Dist: gen.IND, Seed: 81})
	orig := bitmapidx.Build(ds, opts)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := bitmapidx.Load(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Binned() != orig.Binned() || loaded.CodecUsed() != orig.CodecUsed() {
		t.Fatal("metadata mismatch after load")
	}
	if loaded.SizeBytes() != orig.SizeBytes() {
		t.Fatalf("size %d after load, want %d", loaded.SizeBytes(), orig.SizeBytes())
	}
	// The loaded index must answer queries identically.
	oc, lc := orig.NewCursor(), loaded.NewCursor()
	for i := 0; i < ds.Len(); i += 17 {
		qo, po := oc.QP(i)
		ql, pl := lc.QP(i)
		if !qo.Equal(ql) || !po.Equal(pl) {
			t.Fatalf("QP mismatch at object %d", i)
		}
	}
}

func TestSaveLoadRaw(t *testing.T) { roundTrip(t, bitmapidx.Options{Codec: bitmapidx.Raw}) }
func TestSaveLoadConcise(t *testing.T) {
	roundTrip(t, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{8}})
}

// TestSaveLoadAdaptive round-trips the adaptive representation: the
// per-column kinds must survive persistence exactly (TestServingIndexKinds
// holds which kinds a build picks).
func TestSaveLoadAdaptive(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 1500, Dim: 4, Cardinality: 80, MissingRate: 0.01, Dist: gen.IND, Seed: 77})
	orig := bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{32}, Adaptive: true})
	od, oc := orig.Representations()
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := bitmapidx.Load(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Adaptive() {
		t.Fatal("adaptive flag lost in round trip")
	}
	if ld, lc := loaded.Representations(); ld != od || lc != oc || loaded.LiteralHeavy() != 0 {
		t.Fatalf("representations changed: loaded %d dense / %d compressed (%d literal-heavy), want %d / %d (0)", ld, lc, loaded.LiteralHeavy(), od, oc)
	}
	oCur, lCur := orig.NewCursor(), loaded.NewCursor()
	for i := 0; i < ds.Len(); i += 31 {
		qo, po := oCur.QP(i)
		ql, pl := lCur.QP(i)
		if !qo.Equal(ql) || !po.Equal(pl) {
			t.Fatalf("QP mismatch at object %d", i)
		}
	}
}

// TestLoadRejectsV2 pins the version gate: a v2 file (no representation
// header) must fail with the rebuild-suggesting version error rather than
// misparse — the serving layer's cache treats that as a miss and rebuilds.
func TestLoadRejectsV2(t *testing.T) {
	ds := paperdata.Sample()
	ix := bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{2}})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	blob[5] = 2 // rewrite the version byte to v2
	_, err := bitmapidx.Load(bytes.NewReader(blob), ds)
	if err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("v2 load error = %v, want a version-mismatch rebuild error", err)
	}
}

func TestLoadedIndexAnswersQueries(t *testing.T) {
	ds := paperdata.Sample()
	ix := bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{2, 2, 3, 3}})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := bitmapidx.Load(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := core.IBIG(ds, 2, loaded, nil)
	for _, it := range res.Items {
		if it.Score != paperdata.T2DAnswerScore {
			t.Fatalf("score(%s) = %d after reload, want %d", it.ID, it.Score, paperdata.T2DAnswerScore)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	ds := paperdata.Sample()
	ix := bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{2}})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one payload byte: the CRC must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if _, err := bitmapidx.Load(bytes.NewReader(bad), ds); err == nil {
		t.Fatal("corrupted stream accepted")
	}

	// Truncation.
	if _, err := bitmapidx.Load(bytes.NewReader(good[:len(good)/3]), ds); err == nil {
		t.Fatal("truncated stream accepted")
	}

	// Wrong magic.
	if _, err := bitmapidx.Load(strings.NewReader("NOTANINDEX"), ds); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestLoadRejectsWrongDataset(t *testing.T) {
	ds := paperdata.Sample()
	ix := bitmapidx.Build(ds, bitmapidx.Options{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := gen.Synthetic(gen.Config{N: 30, Dim: 4, Cardinality: 5, MissingRate: 0.2, Dist: gen.IND, Seed: 82})
	if _, err := bitmapidx.Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("index bound to a dataset of different shape")
	}
	// Same shape, different values: rank reconstruction must fail loudly.
	sameShape := gen.Synthetic(gen.Config{N: 20, Dim: 4, Cardinality: 50, MissingRate: 0.2, Dist: gen.IND, Seed: 83})
	if _, err := bitmapidx.Load(bytes.NewReader(buf.Bytes()), sameShape); err == nil {
		t.Fatal("index bound to a dataset with foreign values")
	}
}

// golden reads one persistence fixture (see testdata/README.md): golden.csv
// is the dataset every golden_v*.idx was saved against.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func goldenDataset(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := data.ReadCSV(bytes.NewReader(golden(t, "golden.csv")))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestLoadGoldenV3 pins the migration: a v3 file an older build wrote is
// keyed by the count-first fingerprint, which no dataset hashes to any more,
// so it fails closed with ErrVersion and a rebuild hint before a byte of it —
// codec included — is trusted, through the prefix loader too.
func TestLoadGoldenV3(t *testing.T) {
	ds := goldenDataset(t)
	for name, load := range map[string]func(io.Reader, *data.Dataset) (*bitmapidx.Index, error){
		"Load": bitmapidx.Load, "LoadPrefix": bitmapidx.LoadPrefix,
	} {
		ix, err := load(bytes.NewReader(golden(t, "golden_v3_wah.idx")), ds)
		if ix != nil || !errors.Is(err, bitmapidx.ErrVersion) || !strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("%s: index %v, error = %v; want ErrVersion with a rebuild hint", name, ix != nil, err)
		}
	}
}

// TestLoadGoldenV4 pins on-disk compatibility from here on: v4 files written
// under the adaptive default and under pure CONCISE load unchanged — same
// header codec value, same column-kind bytes — re-save byte-identically, and
// answer exactly.
func TestLoadGoldenV4(t *testing.T) {
	ds := goldenDataset(t)
	want, _ := core.Naive(ds, 7)
	for _, tc := range []struct {
		file     string
		adaptive bool
	}{
		{"golden_v4_adaptive.idx", true},
		{"golden_v4_concise.idx", false},
	} {
		blob := golden(t, tc.file)
		ix, err := bitmapidx.Load(bytes.NewReader(blob), ds)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if ix.Adaptive() != tc.adaptive || ix.CodecUsed() != bitmapidx.Concise || !ix.Binned() {
			t.Fatalf("%s: loaded as adaptive=%v codec=%v binned=%v", tc.file, ix.Adaptive(), ix.CodecUsed(), ix.Binned())
		}
		if d, c := ix.Representations(); tc.adaptive && (d == 0 || c == 0 || ix.LiteralHeavy() != 0) {
			t.Fatalf("%s: dense=%d compressed=%d (%d literal-heavy), want both kinds and every compressed column fill-dominated", tc.file, d, c, ix.LiteralHeavy())
		}
		var out bytes.Buffer
		if err := ix.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), blob) {
			t.Fatalf("%s: re-saved index differs from the golden bytes — the v4 format moved", tc.file)
		}
		got, _ := core.IBIG(ds, 7, ix, nil)
		if ws, gs := want.Scores(), got.Scores(); !slices.Equal(ws, gs) {
			t.Fatalf("%s: IBIG scores %v, want %v", tc.file, gs, ws)
		}
	}
}

// TestLoadRejectsWAH: a retired representation's byte fails with
// ErrUnsupportedCodec and a rebuild hint, never a misparse — WAH's value 1 as
// the header codec (the byte a WAH-pinned build wrote there, see
// golden_v3_wah.idx) or as a column kind inside an otherwise valid file, and
// column kind 3, the sorted-id sparse list of the three-kind adaptive rule
// (golden_v4_adaptive_3kind.idx, as the last build that wrote it left it).
func TestLoadRejectsWAH(t *testing.T) {
	ds := goldenDataset(t)
	check := func(name string, blob []byte) {
		t.Helper()
		for _, load := range []func(io.Reader, *data.Dataset) (*bitmapidx.Index, error){bitmapidx.Load, bitmapidx.LoadPrefix} {
			ix, err := load(bytes.NewReader(blob), ds)
			if ix != nil || !errors.Is(err, bitmapidx.ErrUnsupportedCodec) || !strings.Contains(err.Error(), "rebuild") {
				t.Fatalf("%s: error = %v, want ErrUnsupportedCodec with a rebuild hint", name, err)
			}
		}
	}
	check("column kind 3", golden(t, "golden_v4_adaptive_3kind.idx"))
	pinned := golden(t, "golden_v4_concise.idx")
	if wah := golden(t, "golden_v3_wah.idx"); pinned[6] != 2 || wah[6] != 1 {
		t.Fatalf("fixture layout drifted: header codec bytes %d / %d, want 2 (CONCISE) / 1 (WAH)", pinned[6], wah[6])
	}
	pinned[6] = 1
	check("WAH header codec", pinned)

	// Column kind 1: rewrite the kind byte of dimension 0's first column (the
	// all-ones column, CONCISE in an adaptive index). Layout up to it: magic,
	// six u64 header fields, u64 rank count + u32 ranks, u64 column count.
	blob := golden(t, "golden_v4_adaptive.idx")
	const hdr = 6 + 6*8
	kindAt := hdr + 8 + 4*int(binary.LittleEndian.Uint64(blob[hdr:])) + 8
	if blob[kindAt] != 2 {
		t.Fatalf("fixture layout drifted: byte %d is %d, want column kind 2", kindAt, blob[kindAt])
	}
	blob[kindAt] = 1
	check("column kind 1", blob)
}

// TestLoadPrefixCheckpoint: a saved index is a checkpoint — (rows,
// fingerprint) of the rows it covers. Over data that has grown since, Load
// (exact) refuses it as stale, LoadPrefix binds it to the prefix it names
// and AppendRows brings it level, with answers equal to Naive over all the
// rows; data whose prefix does not hash to the checkpoint is stale for both.
func TestLoadPrefixCheckpoint(t *testing.T) {
	base := gen.Synthetic(gen.Config{N: 400, Dim: 4, Cardinality: 12, MissingRate: 0.2, Dist: gen.IND, Seed: 91})
	more := gen.Synthetic(gen.Config{N: 37, Dim: 4, Cardinality: 14, MissingRate: 0.2, Dist: gen.IND, Seed: 92})
	opts := bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{}, Adaptive: true}
	var saved bytes.Buffer
	if err := bitmapidx.Build(base, opts).Save(&saved); err != nil {
		t.Fatal(err)
	}
	grow := func(from *data.Dataset) *data.Dataset {
		next := from.Extend(more.Len())
		for i := 0; i < more.Len(); i++ {
			next.MustAppend("late-"+more.Obj(i).ID, more.Obj(i).Values)
		}
		return next
	}
	grown := grow(base)

	if _, err := bitmapidx.Load(bytes.NewReader(saved.Bytes()), grown); !errors.Is(err, bitmapidx.ErrStale) {
		t.Fatalf("exact load over grown data: error = %v, want ErrStale", err)
	}
	ix, err := bitmapidx.LoadPrefix(bytes.NewReader(saved.Bytes()), grown)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Dataset().Len() != base.Len() {
		t.Fatalf("prefix index covers %d rows, the checkpoint names %d", ix.Dataset().Len(), base.Len())
	}
	full, ok := bitmapidx.AppendRows(ix, grown)
	if !ok || full.Dataset() != grown {
		t.Fatal("the tail could not be patched onto the loaded prefix")
	}
	want, _ := core.Naive(grown, 9)
	got, _ := core.IBIG(grown, 9, full, nil)
	if ws, gs := want.Scores(), got.Scores(); !slices.Equal(ws, gs) {
		t.Fatalf("IBIG over checkpoint + tail scores %v, Naive %v", gs, ws)
	}
	// An exact match is the prefix case with nothing behind it.
	if whole, err := bitmapidx.LoadPrefix(bytes.NewReader(saved.Bytes()), base); err != nil || whole.Dataset() != base {
		t.Fatalf("prefix load of an exact match: bound to the dataset itself = %v, err %v", err == nil && whole.Dataset() == base, err)
	}

	// Same shape and length, another first row: not this checkpoint's data.
	other := data.New(4)
	other.MustAppend("intruder", []float64{1, 2, 3, 4})
	for i := 1; i < base.Len(); i++ {
		other.MustAppend(base.Obj(i).ID, base.Obj(i).Values)
	}
	for name, ds := range map[string]*data.Dataset{"same length": other, "grown": grow(other)} {
		if _, err := bitmapidx.LoadPrefix(bytes.NewReader(saved.Bytes()), ds); !errors.Is(err, bitmapidx.ErrStale) {
			t.Fatalf("%s, foreign prefix: error = %v, want ErrStale", name, err)
		}
	}
	// Fewer rows than the checkpoint covers.
	if _, err := bitmapidx.LoadPrefix(bytes.NewReader(saved.Bytes()), base.Slice(0, 399)); !errors.Is(err, bitmapidx.ErrStale) {
		t.Fatalf("checkpoint longer than the data: error = %v, want ErrStale", err)
	}
}

// TestBuildDeterministicAcrossCores: a build sorts and encodes its dimensions
// side by side, each into its own slot, so the index — down to the bytes Save
// writes — must not depend on how many run at once. The golden files say the
// bytes are also the ones earlier builds wrote: a cold build over golden.csv
// reproduces golden_v4_*.idx exactly.
func TestBuildDeterministicAcrossCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	saved := func(ds *data.Dataset, opts bitmapidx.Options) []byte {
		var out bytes.Buffer
		if err := bitmapidx.Build(ds, opts).Save(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	small := goldenDataset(t)
	large := gen.Synthetic(gen.Config{N: 20000, Dim: 7, Cardinality: 100, MissingRate: 0.2, Dist: gen.IND, Seed: 5})
	serving := bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{}, Adaptive: true}
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for file, opts := range map[string]bitmapidx.Options{
			"golden_v4_adaptive.idx": {Codec: bitmapidx.Concise, Bins: []int{30}, Adaptive: true},
			"golden_v4_concise.idx":  {Codec: bitmapidx.Concise, Bins: []int{30}},
		} {
			if !bytes.Equal(saved(small, opts), golden(t, file)) {
				t.Fatalf("GOMAXPROCS %d: a cold build over golden.csv no longer saves %s's bytes", procs, file)
			}
		}
		got := saved(large, serving)
		if want == nil {
			want = got
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d: saved index differs from the one built at GOMAXPROCS 1", procs)
		}
	}
}
