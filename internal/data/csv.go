package data

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// CSV layout: a header row "id,v1,...,vd", then one row per object. Missing
// values are written as "-" (the paper's notation) and read back as either
// "-" or the empty string.

// CheckID rejects an object ID the CSV layout cannot carry. encoding/csv
// reads a quoted "\r\n" back as "\n", so such an ID would leave in an epoch
// stream (full or delta, both WriteCSV text) as one ID and arrive as another,
// and the rows would hash to a different fingerprint on the other side. Every
// other byte — a lone "\r", "\n", commas, quotes — round-trips.
func CheckID(id string) error {
	if strings.Contains(id, "\r\n") {
		return fmt.Errorf("data: object id %q contains \\r\\n, which CSV does not carry", id)
	}
	return nil
}

// WriteCSV serializes the dataset.
func (ds *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, ds.dim+1)
	header[0] = "id"
	for d := 0; d < ds.dim; d++ {
		header[d+1] = fmt.Sprintf("v%d", d+1)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, ds.dim+1)
	for i := range ds.objs {
		o := &ds.objs[i]
		row[0] = o.ID
		for d := 0; d < ds.dim; d++ {
			if o.Observed(d) {
				row[d+1] = strconv.FormatFloat(o.Values[d], 'g', -1, 64)
			} else {
				row[d+1] = "-"
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads r to its end and parses what it read as ParseCSV does.
func ReadCSV(r io.Reader) (*Dataset, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV: %w", err)
	}
	return ParseCSV(b)
}

// ParseCSV parses a dataset written by WriteCSV (or hand-authored in the same
// layout). Objects with no observed dimension are rejected, matching the
// paper's model assumption. It does not retain b.
//
// Input holding no '"' and no '\r' — what WriteCSV writes unless an ID needs
// quoting — is read by scanCSV straight off the bytes. Everything else,
// and any input scanCSV would reject, goes whole to readCSV, the encoding/csv
// loop: the reference scanCSV is tested against, the one reader of quoted
// fields and the one source of parse errors.
func ParseCSV(b []byte) (*Dataset, error) {
	if bytes.IndexByte(b, '"') < 0 && bytes.IndexByte(b, '\r') < 0 {
		if ds := scanCSV(b); ds != nil {
			return ds, nil
		}
	}
	return readCSV(b)
}

// header checks a header record and returns the dimensionality it declares.
func header(fields []string) (int, error) {
	if len(fields) < 2 || fields[0] != "id" {
		return 0, fmt.Errorf("data: malformed CSV header %v", fields)
	}
	if dim := len(fields) - 1; dim > MaxDim {
		return 0, fmt.Errorf("data: CSV header has %d value columns, at most %d", dim, MaxDim)
	}
	return len(fields) - 1, nil
}

// presized returns an empty dataset with room for the rows of a CSV of size
// bytes and the given line count, the header being one of them: the row
// headers and the value arena Append carves from, each allocated once. A
// valid row holds dim commas and at least one digit, so the bytes cap the
// rows too: junk lines under a wide header — a section off the network —
// reserve no more than valid rows of the same size would.
func presized(dim, lines, size int) *Dataset {
	rows := max(min(lines-1, size/(dim+1)), 0)
	ds := New(dim)
	ds.objs = make([]Object, 0, rows)
	ds.arena = make([]float64, rows*dim)
	return ds
}

// countLines counts b's newlines, and a last line that lacks one.
func countLines(b []byte) int {
	n := bytes.Count(b, []byte{'\n'})
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

// readCSV is the encoding/csv record loop.
func readCSV(b []byte) (*Dataset, error) {
	cr := csv.NewReader(bytes.NewReader(b))
	cr.ReuseRecord = true // fields are copied out (ParseFloat) or fresh strings (the ID) before the next Read
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV header: %w", err)
	}
	dim, err := header(head)
	if err != nil {
		return nil, err
	}
	ds := presized(dim, countLines(b), len(b))
	values := make([]float64, dim)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: reading CSV line %d: %w", line, err)
		}
		if len(rec) != dim+1 {
			return nil, fmt.Errorf("data: CSV line %d has %d fields, want %d", line, len(rec), dim+1)
		}
		for d := 0; d < dim; d++ {
			cell := strings.TrimSpace(rec[d+1])
			if cell == "-" || cell == "" {
				values[d] = Missing()
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("data: CSV line %d dim %d: %w", line, d+1, err)
			}
			values[d] = v
		}
		if _, err := ds.Append(rec[0], values); err != nil {
			return nil, fmt.Errorf("data: CSV line %d: %w", line, err)
		}
	}
	return ds, nil
}

// scanCSV reads input free of '"' and '\r': lines split on '\n' (blank ones
// skipped, as encoding/csv skips them), fields on ','. A first walk over the
// lines counts them and the ID bytes, so the row headers, the value arena and
// one string holding every ID are each allocated once, at their size, and the
// dataset holds no byte of b; the second walk parses. It returns nil
// wherever readCSV would return an error.
func scanCSV(b []byte) *Dataset {
	head, rest := nextLine(b)
	dim, err := header(strings.Split(string(head), ","))
	if err != nil {
		return nil
	}
	lines, idBytes := 1, 0
	for r := rest; ; lines++ {
		var line []byte
		if line, r = nextLine(r); line == nil {
			break
		}
		idBytes += max(bytes.IndexByte(line, ','), 0)
	}
	ds := presized(dim, lines, len(b))
	var ids strings.Builder
	ids.Grow(idBytes)
	for {
		var line []byte
		if line, rest = nextLine(rest); line == nil {
			break
		}
		c := bytes.IndexByte(line, ',')
		if c < 0 || len(ds.arena) < dim {
			return nil // no ID field, or more rows than the bytes can hold
		}
		ids.Write(line[:c])
		o := Object{ID: ids.String()[ids.Len()-c:], Values: ds.arena[:dim:dim]}
		ds.arena = ds.arena[dim:]
		cells := line[c:]
		for d := 0; d < dim; d++ {
			if len(cells) == 0 {
				return nil // a short row
			}
			v, n, ok := scanCell(cells[1:])
			if !ok {
				return nil
			}
			cells = cells[1+n:]
			if math.IsNaN(v) {
				o.Values[d] = math.NaN()
			} else {
				o.Values[d] = v
				o.Mask |= 1 << uint(d)
			}
		}
		if len(cells) != 0 || o.Mask == 0 {
			return nil // a long row, or one with nothing observed
		}
		ds.objs = append(ds.objs, o)
		ds.missing += dim - o.ObservedCount()
	}
	return ds
}

// nextLine splits b's first non-empty line off the rest; line is nil when no
// such line is left.
func nextLine(b []byte) (line, rest []byte) {
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		switch {
		case i < 0:
			return b, nil
		case i > 0:
			return b[:i], b[i+1:]
		}
		b = b[1:]
	}
	return nil, nil
}

// scanCell reads the cell at the head of s, which runs to the next ',' or the
// end of s, and returns its value (NaN for a missing cell) and its length;
// ok is false where readCSV fails the cell. Up to 15 decimal digits, after an
// optional '-', are an integer a float64 holds exactly, so converting it here
// gives what ParseFloat would. Any other cell gets readCSV's TrimSpace and
// ParseFloat.
func scanCell(s []byte) (v float64, n int, ok bool) {
	neg := len(s) > 0 && s[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	var u uint64
	k := i
	for k < len(s) && k-i < 16 && s[k]-'0' <= 9 {
		u = u*10 + uint64(s[k]-'0')
		k++
	}
	if k > i && k-i <= 15 && (k == len(s) || s[k] == ',') {
		v = float64(u)
		if neg {
			v = -v
		}
		return v, k, true
	}
	n = bytes.IndexByte(s, ',')
	if n < 0 {
		n = len(s)
	}
	cell := bytes.TrimSpace(s[:n])
	if len(cell) == 0 || len(cell) == 1 && cell[0] == '-' {
		return math.NaN(), n, true
	}
	v, err := strconv.ParseFloat(string(cell), 64)
	return v, n, err == nil
}
