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

// saved is what Save writes of ix.
func saved(t *testing.T, ix *bitmapidx.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip builds an index under opts, writes it with write and loads it
// back: the loaded index has the build's layout and bytes, answers Q/P as it
// does and re-saves as it saves.
func roundTrip(t *testing.T, opts bitmapidx.Options, write func(*bitmapidx.Index) []byte) {
	t.Helper()
	ds := gen.Synthetic(gen.Config{N: 500, Dim: 4, Cardinality: 16, MissingRate: 0.25, Dist: gen.IND, Seed: 81})
	orig := bitmapidx.Build(ds, opts)
	loaded, err := bitmapidx.Load(bytes.NewReader(write(orig)), ds)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Binned() != orig.Binned() || loaded.SizeBytes() != orig.SizeBytes() {
		t.Fatalf("loaded binned=%v in %d B, built binned=%v in %d B", loaded.Binned(), loaded.SizeBytes(), orig.Binned(), orig.SizeBytes())
	}
	oc, lc := orig.NewCursor(), loaded.NewCursor()
	for i := 0; i < ds.Len(); i += 17 {
		qo, po := oc.QP(i)
		ql, pl := lc.QP(i)
		if !qo.Equal(ql) || !po.Equal(pl) {
			t.Fatalf("QP mismatch at object %d", i)
		}
	}
	if !bytes.Equal(saved(t, loaded), saved(t, orig)) {
		t.Fatal("the loaded index does not re-save as the build saves")
	}
}

func TestSaveLoadRaw(t *testing.T) {
	roundTrip(t, bitmapidx.Options{}, func(ix *bitmapidx.Index) []byte { return saved(t, ix) })
}

// TestSaveLoadConcise and TestSaveLoadAdaptive load the files earlier builds
// wrote — every column CONCISE, or the fill-dominated ones — into the dense
// index a build makes.
func TestSaveLoadConcise(t *testing.T) {
	roundTrip(t, bitmapidx.Options{Bins: []int{8}}, func(ix *bitmapidx.Index) []byte { return ix.SaveLegacy(t, false) })
}

func TestSaveLoadAdaptive(t *testing.T) {
	roundTrip(t, bitmapidx.Options{Bins: []int{32}}, func(ix *bitmapidx.Index) []byte { return ix.SaveLegacy(t, true) })
}

// TestLoadRejectsV2 pins the version gate: a v2 file (no representation
// header) must fail with the rebuild-suggesting version error rather than
// misparse — the serving layer's cache treats that as a miss and rebuilds.
func TestLoadRejectsV2(t *testing.T) {
	ds := paperdata.Sample()
	ix := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{2}})
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
	ix := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{2, 2, 3, 3}})
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
	ix := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{2}})
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

// TestLoadGoldenV4 pins on-disk compatibility from here on: the dense v4 file
// loads and re-saves byte-identically, and the adaptive and pure-CONCISE
// files earlier builds wrote load with their CONCISE columns decompressed —
// each re-saves as the dense file — and every one answers exactly.
func TestLoadGoldenV4(t *testing.T) {
	ds := goldenDataset(t)
	want, _ := core.Naive(ds, 7)
	dense := golden(t, "golden_v4_dense.idx")
	for _, file := range []string{"golden_v4_dense.idx", "golden_v4_adaptive.idx", "golden_v4_concise.idx"} {
		ix, err := bitmapidx.Load(bytes.NewReader(golden(t, file)), ds)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !ix.Binned() {
			t.Fatalf("%s: loaded unbinned", file)
		}
		if !bytes.Equal(saved(t, ix), dense) {
			t.Fatalf("%s: re-saved index differs from golden_v4_dense.idx — the v4 format moved", file)
		}
		got, _ := core.IBIG(ds, 7, ix, nil)
		if !slices.Equal(got.Items, want.Items) {
			t.Fatalf("%s: IBIG answers %v, want %v", file, got.Items, want.Items)
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
	opts := bitmapidx.Options{Bins: []int{}}
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
	if !slices.Equal(got.Items, want.Items) {
		t.Fatalf("IBIG over checkpoint + tail answers %v, Naive %v", got.Items, want.Items)
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
// saves golden_v4_dense.idx exactly, and written as the CONCISE builds wrote
// (SaveLegacy) golden_v4_concise.idx and golden_v4_adaptive.idx.
func TestBuildDeterministicAcrossCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	small := goldenDataset(t)
	large := gen.Synthetic(gen.Config{N: 20000, Dim: 7, Cardinality: 100, MissingRate: 0.2, Dist: gen.IND, Seed: 5})
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		ix := bitmapidx.Build(small, bitmapidx.Options{Bins: []int{30}})
		for file, blob := range map[string][]byte{
			"golden_v4_dense.idx":    saved(t, ix),
			"golden_v4_adaptive.idx": ix.SaveLegacy(t, true),
			"golden_v4_concise.idx":  ix.SaveLegacy(t, false),
		} {
			if !bytes.Equal(blob, golden(t, file)) {
				t.Fatalf("GOMAXPROCS %d: a cold build over golden.csv no longer writes %s's bytes", procs, file)
			}
		}
		got := saved(t, bitmapidx.Build(large, bitmapidx.Options{Bins: []int{}}))
		if want == nil {
			want = got
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d: saved index differs from the one built at GOMAXPROCS 1", procs)
		}
	}
}
