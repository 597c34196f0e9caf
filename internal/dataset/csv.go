package dataset

import "io"

// WriteCSV writes the dataset as CSV with a header row. Attribute columns
// come first, the class label (by name) last. It is a CSVSink over the
// dataset's own columns, so a ragged dataset fails with
// ErrSchemaMismatch and a label outside ClassNames with ErrBadLabel.
func (d *Dataset) WriteCSV(w io.Writer) error { return d.writeCSV(w, 0) }

// writeCSV is WriteCSV at the given codec width (<= 0: the default).
func (d *Dataset) writeCSV(w io.Writer, workers int) error {
	sink := newCSVSink(w, &Schema{AttrNames: d.AttrNames, ClassNames: d.ClassNames}, workers)
	if err := sink.Write(&Block{Cols: d.Cols, Labels: d.Labels}); err != nil {
		return err
	}
	return sink.Flush()
}

// ReadCSV parses a dataset from CSV produced by WriteCSV (or any CSV
// whose last column is a categorical class and all other columns are
// numeric). Class names are assigned indices in order of first
// appearance. It is a CSVSource drained into a Collector.
func ReadCSV(r io.Reader) (*Dataset, error) { return readCSV(r, 0) }

// readCSV is ReadCSV at the given codec width (<= 0: the default).
func readCSV(r io.Reader, workers int) (*Dataset, error) {
	src, err := newCSVSource(r, workers)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}
