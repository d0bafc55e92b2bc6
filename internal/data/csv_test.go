package data_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/gen"
)

// sameRows fails t unless a and b hold the same rows: IDs, masks, the IEEE
// bits of every observed value, and so the same fingerprint.
func sameRows(t *testing.T, what string, a, b *data.Dataset) {
	t.Helper()
	if a.Len() != b.Len() || a.Dim() != b.Dim() {
		t.Fatalf("%s: shape %d×%d against %d×%d", what, a.Len(), a.Dim(), b.Len(), b.Dim())
	}
	for i := 0; i < a.Len(); i++ {
		oa, ob := a.Obj(i), b.Obj(i)
		if oa.ID != ob.ID || oa.Mask != ob.Mask {
			t.Fatalf("%s: row %d is (%q, %b) against (%q, %b)", what, i, oa.ID, oa.Mask, ob.ID, ob.Mask)
		}
		for d := 0; d < a.Dim(); d++ {
			if oa.Observed(d) && math.Float64bits(oa.Values[d]) != math.Float64bits(ob.Values[d]) {
				t.Fatalf("%s: row %d dim %d is %v against %v", what, i, d, oa.Values[d], ob.Values[d])
			}
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("%s: fingerprint %016x against %016x", what, a.Fingerprint(), b.Fingerprint())
	}
}

// TestScanCSVMatchesReference: the WriteCSV text of every generator the
// repository serves or reproduces takes the scanner path, and the scanner
// reads it to the rows the encoding/csv loop reads and the generator wrote.
func TestScanCSVMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		ds   *data.Dataset
	}{
		{"IND", gen.Synthetic(gen.Config{N: 20000, Dim: 6, Cardinality: 200, MissingRate: 0.1, Dist: gen.IND, Seed: 1})},
		{"AC", gen.Synthetic(gen.Config{N: 20000, Dim: 6, Cardinality: 200, MissingRate: 0.1, Dist: gen.AC, Seed: 2})},
		{"MovieLens", gen.MovieLens(3)},
		{"Zillow", gen.Zillow(4, 20000)},
		{"NBA", gen.NBA(5)},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := tc.ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		if bytes.IndexByte(b, '"') >= 0 || bytes.IndexByte(b, '\r') >= 0 {
			t.Fatalf("%s: WriteCSV quoted a field", tc.name)
		}
		scanned := data.ScanCSV(b)
		if scanned == nil {
			t.Fatalf("%s: the scanner declined a WriteCSV file", tc.name)
		}
		ref, err := data.ReferenceCSV(b)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, tc.name+" scanned vs reference", scanned, ref)
		sameRows(t, tc.name+" scanned vs generated", scanned, tc.ds)
		// The value arena is spent: a row appended later has storage of its own.
		if _, err := scanned.Append("extra", make([]float64, scanned.Dim())); err != nil {
			t.Fatal(err)
		}
		sameRows(t, tc.name+" rows under an append", scanned.Slice(0, ref.Len()), ref)
	}
}

// TestReadCSVRejectsTooManyColumns: a header wider than MaxDim value columns
// is an error on both paths, not the panic data.New raises for it.
func TestReadCSVRejectsTooManyColumns(t *testing.T) {
	for _, dim := range []int{data.MaxDim + 1, 69} {
		cols := make([]string, dim+1)
		cols[0] = "id"
		for d := 1; d <= dim; d++ {
			cols[d] = "v"
		}
		text := strings.Join(cols, ",") + "\n"
		for _, in := range []string{text, text + "\"q\"" + strings.Repeat(",1", dim) + "\n"} {
			_, err := data.ReadCSV(strings.NewReader(in))
			if err == nil || !strings.Contains(err.Error(), "value columns, at most 64") {
				t.Fatalf("%d value columns: err = %v, want the header-width error", dim, err)
			}
		}
	}
	at := "id" + strings.Repeat(",v", data.MaxDim) + "\na" + strings.Repeat(",1", data.MaxDim) + "\n"
	if ds, err := data.ReadCSV(strings.NewReader(at)); err != nil || ds.Dim() != data.MaxDim {
		t.Fatalf("a header of exactly %d value columns: err = %v", data.MaxDim, err)
	}
}
