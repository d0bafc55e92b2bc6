package data_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
)

// FuzzReadCSV holds ReadCSV to the encoding/csv loop it replaced: on any
// input the two agree on accept or reject (with the same message); the
// scanner takes exactly the accepted inputs free of '"' and '\r', and yields
// the reference's rows to the bit; and an accepted dataset survives a
// write/read round trip with its fingerprint.
func FuzzReadCSV(f *testing.F) {
	f.Add("id,v1,v2\na,1,2\n")
	f.Add("id,v1,v2\na,-,2\nb,3,-\n")
	f.Add("id,v1\nx,1e300\n")
	f.Add("id,v1,v2,v3\np,-1.5,,0\n")
	f.Add("")
	f.Add("id,v1\n\"quoted,name\",7\n")
	f.Add("id,v1,v2\r\na,1,2\r\nb,3,-\r\n")
	f.Add("\n\n\nid,v1\na,1\n")
	f.Add("id,v1,v2\na,1,2\nb,3,4")
	f.Add("id,v1,v2\na, 7 ,-0\nb,007,+5\n")
	f.Add("id,v1,v2,v3\na,0x1p-2,Inf,NaN\nb,-Inf,NaN,1\n")
	f.Add("id,v1\n\"a,\nb\",1\n")
	f.Add("id,v1,v2\na,1\n")
	f.Add("id,v1\na,1234567890123456\nb,-999999999999999\n")
	f.Add("id" + strings.Repeat(",v", data.MaxDim+1) + "\na" + strings.Repeat(",1", data.MaxDim+1) + "\n")
	f.Fuzz(func(t *testing.T, input string) {
		b := []byte(input)
		ds, err := data.ReadCSV(strings.NewReader(input))
		ref, refErr := data.ReferenceCSV(b)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("ReadCSV err = %v, the encoding/csv loop's = %v", err, refErr)
		}
		var scanned *data.Dataset
		if !strings.ContainsAny(input, "\"\r") {
			if scanned = data.ScanCSV(b); (scanned != nil) != (refErr == nil) {
				t.Fatalf("scanner accepted = %v on input the encoding/csv loop answers %v", scanned != nil, refErr)
			}
		}
		if err != nil {
			return
		}
		sameRows(t, "ReadCSV vs reference", ds, ref)
		if scanned != nil {
			sameRows(t, "scanner vs reference", scanned, ref)
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("cannot re-serialize accepted dataset: %v", err)
		}
		back, err := data.ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		sameRows(t, "round trip", back, ds)
	})
}

// FuzzSortDims holds SortDims' radix kernel to a stable comparison sort by
// (value, index): on any rows both give the same Stats, the same rank table
// and the same per-dimension order. The input is dim-1 (mod 4) and then one
// 9-byte cell after another — a selector byte whose low two bits clear mark
// the cell missing, then the value's IEEE-754 bits, little-endian; a row with
// no observed cell is dropped, as Append drops it.
func FuzzSortDims(f *testing.F) {
	m := math.NaN()
	neg0 := math.Copysign(0, -1)
	for _, rows := range [][][]float64{
		{{0, 1}, {neg0, 1}, {0, neg0}, {neg0, 2}},                                                                                               // −0 and +0 are one value
		{{-3, 2}, {-1e300, -2}, {5, -0.5}, {-3, 7}},                                                                                             // negatives
		{{math.Inf(1), 1}, {math.Inf(-1), 1}, {0, math.Inf(1)}, {math.MaxFloat64, -1}},                                                          // ±Inf
		{{5e-324, 1}, {-5e-324, 2}, {2.2250738585072009e-308, 3}, {0, 4}},                                                                       // subnormals
		{{1, 1}, {math.Nextafter(1, 2), 1}, {math.Nextafter(math.Nextafter(1, 2), 2), 1}, {math.Float64frombits(math.Float64bits(1) + 256), 1}}, // low mantissa bytes
		{{7, 7}, {7, 7}, {7, 7}, {7, 7}},                                                                                                        // a single distinct value
		{{1, m}, {2, m}, {1, m}, {3, m}},                                                                                                        // a dimension missing on every row
		{{m, 4}, {2, m}, {m, 4}, {2, 4}},                                                                                                        // a cell missing here and there
	} {
		f.Add(encodeRows(rows))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		dim := 1 + int(raw[0]%4)
		ds := data.New(dim)
		row := make([]float64, dim)
		for p := 1; p+9*dim <= len(raw); p += 9 * dim {
			for d := range row {
				cell := raw[p+9*d:]
				row[d] = math.NaN()
				if cell[0]&3 != 0 {
					row[d] = math.Float64frombits(binary.LittleEndian.Uint64(cell[1:9]))
				}
			}
			ds.Append(fmt.Sprintf("r%d", ds.Len()), row) // an all-missing row is refused
		}
		s := ds.SortDims()
		n := ds.Len()
		for d := 0; d < dim; d++ {
			var ids []int32
			for i := 0; i < n; i++ {
				if ds.Obj(i).Observed(d) {
					ids = append(ids, int32(i))
				}
			}
			val := func(id int32) float64 { return ds.Obj(int(id)).Values[d] }
			sort.SliceStable(ids, func(a, b int) bool { return val(ids[a]) < val(ids[b]) })
			want := data.DimStats{MissingCount: n - len(ids)}
			rank := make([]int32, n)
			for i := range rank {
				rank[i] = -1
			}
			for j, id := range ids {
				if j == 0 || val(ids[j-1]) != val(id) {
					want.Distinct = append(want.Distinct, val(id))
					want.CountPerValue = append(want.CountPerValue, 0)
				}
				want.CountPerValue[len(want.CountPerValue)-1]++
				rank[id] = int32(len(want.Distinct) - 1)
			}
			got := s.Stats[d]
			if got.MissingCount != want.MissingCount || !slices.Equal(got.CountPerValue, want.CountPerValue) ||
				!slices.EqualFunc(got.Distinct, want.Distinct, func(a, b float64) bool { return a == b }) {
				t.Fatalf("dimension %d: Stats %+v, the comparison sort's %+v", d, got, want)
			}
			for r, v := range got.Distinct {
				if math.Signbit(v) && v == 0 {
					t.Fatalf("dimension %d: distinct value %d is −0, want +0 (the key −0 shares)", d, r)
				}
			}
			for i := 0; i < n; i++ {
				if s.Ranks[i*dim+d] != rank[i] {
					t.Fatalf("dimension %d: object %d ranks %d, the comparison sort's %d", d, i, s.Ranks[i*dim+d], rank[i])
				}
			}
			if !slices.Equal(s.Order[d], ids) {
				t.Fatalf("dimension %d: Order %v, the comparison sort's %v", d, s.Order[d], ids)
			}
		}
	})
}

// encodeRows writes rows in FuzzSortDims' input form, NaN as a missing cell.
func encodeRows(rows [][]float64) []byte {
	out := []byte{byte(len(rows[0]) - 1)}
	for _, row := range rows {
		for _, v := range row {
			sel := byte(1)
			if math.IsNaN(v) {
				sel = 0
			}
			out = binary.LittleEndian.AppendUint64(append(out, sel), math.Float64bits(v))
		}
	}
	return out
}
