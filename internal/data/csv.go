package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
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

// csvBlock is how many rows ReadCSV reserves at a time: the size of a value
// arena, and the row headers' starting capacity.
const csvBlock = 1024

// reserve makes room for one more row without a per-row allocation: Append
// carves the row's Values out of a block arena (the one Extend feeds the same
// way), and the row headers double from csvBlock instead of creeping up by a
// quarter — a 100 k-row load copies them twice over, not five times.
func (ds *Dataset) reserve() {
	if len(ds.arena) < ds.dim {
		ds.arena = make([]float64, csvBlock*ds.dim)
	}
	if len(ds.objs) == cap(ds.objs) {
		ds.objs = slices.Grow(ds.objs, max(len(ds.objs), csvBlock))
	}
}

// ReadCSV parses a dataset written by WriteCSV (or hand-authored in the same
// layout). Objects with no observed dimension are rejected, matching the
// paper's model assumption.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true // fields are copied out (ParseFloat) or fresh strings (the ID) before the next Read
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV header: %w", err)
	}
	if len(header) < 2 || header[0] != "id" {
		return nil, fmt.Errorf("data: malformed CSV header %v", header)
	}
	ds := New(len(header) - 1)
	values := make([]float64, ds.dim)
	for line := 2; ; line++ {
		ds.reserve()
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: reading CSV line %d: %w", line, err)
		}
		if len(rec) != ds.dim+1 {
			return nil, fmt.Errorf("data: CSV line %d has %d fields, want %d", line, len(rec), ds.dim+1)
		}
		for d := 0; d < ds.dim; d++ {
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
