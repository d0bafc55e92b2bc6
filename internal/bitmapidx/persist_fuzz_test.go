package bitmapidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/data"
	"repro/internal/gen"
)

// fuzzDataset is the fixed dataset every fuzz execution loads against; the
// corpus seeds are indexes saved from it (plus corruptions thereof).
func fuzzDataset() *data.Dataset {
	return gen.Synthetic(gen.Config{N: 120, Dim: 3, Cardinality: 10, MissingRate: 0.2, Dist: gen.IND, Seed: 42})
}

// savedIndex serializes one index of the fuzz dataset.
func savedIndex(tb testing.TB, opts Options) []byte {
	tb.Helper()
	ds := fuzzDataset()
	ix := Build(ds, opts)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// Byte offsets into a saved index: the adaptive header flag (third u64 after
// the magic and the codec) and dimension 0's first column-kind byte (after
// the six header fields, the u64 rank count, its u32 ranks and the u64 column
// count).
const adaptiveFlagAt = len(persistMagic) + 2*8

func firstKindAt(blob []byte) int {
	const hdr = len(persistMagic) + 6*8
	return hdr + 8 + 4*int(binary.LittleEndian.Uint64(blob[hdr:])) + 8
}

// threeKindMiddleBand is what the three-kind adaptive rule could leave on
// disk and this build still reads: an adaptive header over CONCISE columns
// that are not fill-dominated. Made from a pure-CONCISE save by setting the
// header flag and re-sealing the checksum.
func threeKindMiddleBand(tb testing.TB, bins int) []byte {
	blob := savedIndex(tb, Options{Codec: Concise, Bins: []int{bins}})
	blob[adaptiveFlagAt] = 1
	body := blob[:len(blob)-4]
	binary.LittleEndian.PutUint32(blob[len(body):], crc32.ChecksumIEEE(body))
	return blob
}

// TestLoadRejectsMalformedBuckets: the exact-bucket flags are derived from
// the rank→bucket map at load, so a map no build or patch produces — here one
// that does not start at bucket 0, under a valid checksum — is refused rather
// than indexed past the columns.
func TestLoadRejectsMalformedBuckets(t *testing.T) {
	blob := savedIndex(t, Options{Codec: Concise, Bins: []int{4}})
	const firstBucketAt = len(persistMagic) + 6*8 + 8
	binary.LittleEndian.PutUint32(blob[firstBucketAt:], 9)
	body := blob[:len(blob)-4]
	binary.LittleEndian.PutUint32(blob[len(body):], crc32.ChecksumIEEE(body))
	if _, err := Load(bytes.NewReader(blob), fuzzDataset()); err == nil {
		t.Fatal("a rank→bucket map starting at bucket 9 loaded")
	}
}

// fuzzGrown is fuzzDataset followed by rows that came later — the data in
// hand when a persisted index turns out to be a checkpoint of a prefix.
func fuzzGrown() *data.Dataset {
	base := fuzzDataset()
	more := gen.Synthetic(gen.Config{N: 9, Dim: 3, Cardinality: 10, MissingRate: 0.2, Dist: gen.IND, Seed: 43})
	next := base.Extend(more.Len())
	for i := 0; i < more.Len(); i++ {
		next.MustAppend(more.Obj(i).ID+"+", more.Obj(i).Values)
	}
	return next
}

// FuzzLoadIndex feeds arbitrary bytes to Load and LoadPrefix. The contract
// under test: a corrupt stream returns an error — it never panics, never OOMs
// on implausible lengths, and never yields an index whose use would fault. A
// stream that does load must round-trip byte-identically through Save, and
// one that loads as a prefix of a grown dataset must cover exactly the rows
// its header names and take the tail through AppendRows. An adaptive stream
// holds a retired column kind (rejected) or comes up under the serving rule:
// every column dense or fill-dominated.
func FuzzLoadIndex(f *testing.F) {
	binned := savedIndex(f, Options{Codec: Concise, Bins: []int{4}})
	raw := savedIndex(f, Options{Codec: Raw})
	// What a build that could still pin WAH wrote: header codec byte 1.
	wahIdx := append([]byte(nil), binned...)
	wahIdx[len(persistMagic)] = 1

	// What the three-kind adaptive rule wrote: a sparse id list (column kind
	// 3 — here the kind byte alone, over a fill word read as an id count) and
	// literal-heavy CONCISE columns under the adaptive header.
	sparseIdx := savedIndex(f, Options{Codec: Concise, Bins: []int{4}, Adaptive: true})
	sparseIdx[firstKindAt(sparseIdx)] = 3

	f.Add(binned)
	f.Add(raw)
	f.Add(wahIdx)
	f.Add(sparseIdx)
	f.Add(threeKindMiddleBand(f, 4))
	// Truncations: header-only, mid-columns, missing checksum.
	f.Add(binned[:6])
	f.Add(binned[:len(binned)/2])
	f.Add(binned[:len(binned)-4])
	// Bit flips in the header, body and checksum.
	for _, bit := range []int{8, 7 * 8, len(binned) / 2 * 8, (len(binned) - 1) * 8} {
		b := append([]byte(nil), binned...)
		b[bit/8] ^= 1 << (bit % 8)
		f.Add(b)
	}
	// Wrong version byte and foreign magic.
	wrongVer := append([]byte(nil), binned...)
	wrongVer[5] = 9
	f.Add(wrongVer)
	f.Add([]byte("TKDIX"))
	f.Add([]byte{})
	// The previous version's magic over the same body (a v3 file is keyed by
	// the old fingerprint definition), and a header naming more rows than
	// either dataset has.
	v3 := append([]byte(nil), binned...)
	v3[5] = 3
	f.Add(v3)
	tooLong := append([]byte(nil), binned...)
	tooLong[6+4*8] = 200
	f.Add(tooLong)

	f.Fuzz(func(t *testing.T, blob []byte) {
		ds := fuzzDataset()
		ix, err := Load(bytes.NewReader(blob), ds)
		if err != nil {
			return // rejected, as corrupt input should be
		}
		if ix.adaptive && ix.LiteralHeavy() != 0 {
			t.Fatalf("adaptive index loaded with %d literal-heavy compressed columns", ix.LiteralHeavy())
		}
		// The accepted stream must be semantically intact: saving it again
		// reproduces a loadable index, and a query-path touch of every
		// column must not fault.
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatalf("re-saving a loaded index: %v", err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes()), ds); err != nil {
			t.Fatalf("re-loading a re-saved index: %v", err)
		}
		// What loads whole also loads as a checkpoint of the grown data.
		grown := fuzzGrown()
		px, err := LoadPrefix(bytes.NewReader(blob), grown)
		if err != nil || px.ds.Len() != ds.Len() {
			t.Fatalf("prefix load over grown data: index %v, err %v", px != nil, err)
		}
		if px.binned {
			if full, ok := AppendRows(px, grown); ok && full.ds.Len() != grown.Len() {
				t.Fatalf("patched prefix covers %d of %d rows", full.ds.Len(), grown.Len())
			}
		}
	})
}

// TestLoadCorruptionMatrix is the deterministic companion of FuzzLoadIndex:
// the classic corruption classes must all be rejected with an error (never
// a panic), and the same Index value stays usable for queries afterwards —
// a failed Load has no side effects.
func TestLoadCorruptionMatrix(t *testing.T) {
	ds := fuzzDataset()
	ix := Build(ds, Options{Codec: Concise, Bins: []int{4}})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	flip := func(bit int) []byte {
		b := append([]byte(nil), valid...)
		b[bit/8] ^= 1 << (bit % 8)
		return b
	}
	cases := map[string][]byte{
		"empty":              {},
		"magic-only":         valid[:6],
		"header-truncated":   valid[:20],
		"body-truncated":     valid[:len(valid)/2],
		"checksum-truncated": valid[:len(valid)-2],
		"wrong-version":      flip(5*8 + 0), // version byte 2 -> 3
		"codec-corrupt":      flip(6 * 8),
		"body-bit-flip":      flip(len(valid) / 2 * 8),
		"checksum-bit-flip":  flip((len(valid) - 1) * 8),
	}
	for name, blob := range cases {
		if _, err := Load(bytes.NewReader(blob), ds); err == nil {
			t.Errorf("%s: corrupt stream loaded without error", name)
		}
	}

	// The untouched stream still loads, and the loaded index round-trips.
	loaded, err := Load(bytes.NewReader(valid), ds)
	if err != nil {
		t.Fatalf("valid stream failed to load after corruption attempts: %v", err)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(valid, again.Bytes()) {
		t.Error("save/load/save is not byte-identical")
	}
}

// TestLoadThreeKindAdaptive: an adaptive file written under the three-kind
// rule either holds a sparse id list — column kind 3, ErrUnsupportedCodec,
// rebuild — or loads with its literal-heavy CONCISE columns re-stored dense:
// the index obeys the serving rule, answers as the columns it was read from
// and re-saves as exactly what a fresh adaptive build saves.
func TestLoadThreeKindAdaptive(t *testing.T) {
	ds := fuzzDataset()
	opts := Options{Codec: Concise, Bins: []int{4}, Adaptive: true}
	fresh := savedIndex(t, opts)

	sparse := append([]byte(nil), fresh...)
	sparse[firstKindAt(sparse)] = 3
	if _, err := Load(bytes.NewReader(sparse), ds); !errors.Is(err, ErrUnsupportedCodec) {
		t.Fatalf("column kind 3: error = %v, want ErrUnsupportedCodec", err)
	}

	ix, err := Load(bytes.NewReader(threeKindMiddleBand(t, 4)), ds)
	if err != nil {
		t.Fatal(err)
	}
	pure := Build(ds, Options{Codec: Concise, Bins: []int{4}})
	if pure.LiteralHeavy() == 0 {
		t.Fatal("fixture has no literal-heavy column to re-store")
	}
	if !ix.adaptive || ix.LiteralHeavy() != 0 {
		t.Fatalf("loaded adaptive=%v with %d literal-heavy compressed columns", ix.adaptive, ix.LiteralHeavy())
	}
	got, want := ix.NewCursor(), pure.NewCursor()
	for o := 0; o < ds.Len(); o++ {
		gq, gp := got.QP(o)
		wq, wp := want.QP(o)
		if !gq.Equal(wq) || !gp.Equal(wp) {
			t.Fatalf("object %d: Q/P diverge from the columns the file held", o)
		}
	}
	var out bytes.Buffer
	if err := ix.Save(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), fresh) {
		t.Fatal("the re-stored index does not save as a fresh adaptive build does")
	}
}
