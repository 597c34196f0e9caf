package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"
)

// refWriteCSV and refReadCSV are the encoding/csv-based WriteCSV and
// ReadCSV bodies the CSV codec replaced, kept verbatim as the oracle the
// codec is checked against: same accepted inputs, bit-identical
// datasets, byte-identical output.

func refWriteCSV(d *Dataset, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string(nil), d.AttrNames...), "class")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, d.NumAttrs()+1)
	for i := 0; i < d.NumTuples(); i++ {
		for a := range d.Cols {
			row[a] = strconv.FormatFloat(d.Cols[a][i], 'g', -1, 64)
		}
		row[d.NumAttrs()] = d.ClassNames[d.Labels[i]]
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func refReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w: %w", err, ErrMalformedCSV)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("need at least one attribute and a class column, got %d columns: %w", len(header), ErrMalformedCSV)
	}
	attrs := header[:len(header)-1]
	d := New(attrs, nil)
	classIdx := map[string]int{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w: %w", line, err, ErrMalformedCSV)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("line %d has %d fields, want %d: %w", line, len(rec), len(header), ErrMalformedCSV)
		}
		for a := 0; a < len(attrs); a++ {
			v, err := strconv.ParseFloat(rec[a], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d attribute %q: %w: %w", line, attrs[a], err, ErrMalformedCSV)
			}
			d.Cols[a] = append(d.Cols[a], v)
		}
		cls := rec[len(rec)-1]
		li, ok := classIdx[cls]
		if !ok {
			li = len(d.ClassNames)
			classIdx[cls] = li
			d.ClassNames = append(d.ClassNames, cls)
		}
		d.Labels = append(d.Labels, li)
	}
	return d, nil
}

// requireBitIdentical fails unless got has want's attribute names,
// class order, labels and the exact bits of every value (NaN payloads
// and signed zeros included).
func requireBitIdentical(t testing.TB, want, got *Dataset) {
	t.Helper()
	if fmt.Sprintf("%q|%q", want.AttrNames, want.ClassNames) != fmt.Sprintf("%q|%q", got.AttrNames, got.ClassNames) {
		t.Fatalf("schema differs: want attrs %q classes %q, got attrs %q classes %q",
			want.AttrNames, want.ClassNames, got.AttrNames, got.ClassNames)
	}
	if len(want.Labels) != len(got.Labels) || len(want.Cols) != len(got.Cols) {
		t.Fatalf("shape differs: want %d×%d, got %d×%d", len(want.Labels), len(want.Cols), len(got.Labels), len(got.Cols))
	}
	for i := range want.Labels {
		if want.Labels[i] != got.Labels[i] {
			t.Fatalf("row %d: label %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	for a := range want.Cols {
		if len(want.Cols[a]) != len(got.Cols[a]) {
			t.Fatalf("column %d: %d values, want %d", a, len(got.Cols[a]), len(want.Cols[a]))
		}
		for i, v := range want.Cols[a] {
			if math.Float64bits(v) != math.Float64bits(got.Cols[a][i]) {
				t.Fatalf("row %d column %d: %v, want %v", i, a, got.Cols[a][i], v)
			}
		}
	}
}
