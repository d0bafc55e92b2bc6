package data_test

import (
	"bytes"
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
