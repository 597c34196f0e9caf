package dataset

import (
	"fmt"
	"io"
)

// The streaming layer: a chunked Source/Sink pair that lets consumers
// (the encode pipeline's apply stage, CSV import/export) process a
// relation block-wise instead of materializing it, so a custodian key
// built once can encode data sets larger than memory.

// Schema describes the columns flowing through a Source or Sink.
type Schema struct {
	// AttrNames holds one name per attribute column.
	AttrNames []string
	// ClassNames maps label indices to class names. For streaming CSV
	// sources this grows as new classes are discovered; a Sink sharing
	// the Schema resolves labels against the same slice, so any label
	// inside an already-read block resolves correctly.
	ClassNames []string
	// Categorical maps categorical attribute indices to their category
	// names (CSV streams carry none; dataset-backed sources do).
	Categorical map[int][]string
}

// NumAttrs returns the number of attribute columns.
func (s *Schema) NumAttrs() int { return len(s.AttrNames) }

// Clone returns a deep copy whose ClassNames no longer aliases the
// source's growing slice.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		AttrNames:  append([]string(nil), s.AttrNames...),
		ClassNames: append([]string(nil), s.ClassNames...),
	}
	if s.Categorical != nil {
		c.Categorical = make(map[int][]string, len(s.Categorical))
		for a, names := range s.Categorical {
			c.Categorical[a] = append([]string(nil), names...)
		}
	}
	return c
}

// Schema returns the dataset's schema. The returned value shares no
// mutable state with the dataset.
func (d *Dataset) Schema() *Schema {
	s := &Schema{
		AttrNames:  append([]string(nil), d.AttrNames...),
		ClassNames: append([]string(nil), d.ClassNames...),
	}
	if d.catNames != nil {
		s.Categorical = make(map[int][]string, len(d.catNames))
		for a, names := range d.catNames {
			s.Categorical[a] = append([]string(nil), names...)
		}
	}
	return s
}

// Block is one chunk of tuples in the column-major layout of Dataset:
// Cols[a][i] is the value of attribute a in the block's i-th tuple.
type Block struct {
	Cols   [][]float64
	Labels []int
}

// NumRows returns the number of tuples in the block.
func (b *Block) NumRows() int { return len(b.Labels) }

// Source yields a relation instance block by block.
type Source interface {
	// Schema describes the columns. For streaming sources the returned
	// pointer is live: ClassNames grows as blocks reveal new classes.
	Schema() *Schema
	// Next returns the next block with at most max tuples (max <= 0
	// means the implementation's default), or io.EOF when the source is
	// exhausted. The returned block is only valid until the next call
	// to Next — implementations may reuse buffers; consumers must copy
	// what they keep.
	Next(max int) (*Block, error)
}

// Sink consumes a relation instance block by block.
type Sink interface {
	// Write consumes one block. The sink must not retain the block.
	Write(b *Block) error
	// Flush finalizes the sink after the last block.
	Flush() error
}

// defaultBlockRows is the block size used when a consumer passes
// max <= 0: large enough to amortize per-block overhead, small enough
// that a block of a wide relation stays cache- and memory-friendly.
const defaultBlockRows = 4096

// DatasetSource streams an in-memory dataset block-wise. Blocks are
// copies, so consumers may mutate them freely (the encode pipeline's
// apply stage transforms blocks in place).
type DatasetSource struct {
	d      *Dataset
	schema *Schema
	at     int
	buf    Block
}

// NewDatasetSource returns a Source over d.
func NewDatasetSource(d *Dataset) *DatasetSource {
	return &DatasetSource{d: d, schema: d.Schema()}
}

// Schema implements Source.
func (s *DatasetSource) Schema() *Schema { return s.schema }

// Total reports the number of tuples the source will yield — the size
// hint streaming consumers (progress/ETA reporting) discover through
// the optional interface{ Total() int }. Sources of unknown length,
// like CSVSource, simply don't implement it.
func (s *DatasetSource) Total() int { return s.d.NumTuples() }

// Next implements Source.
func (s *DatasetSource) Next(max int) (*Block, error) {
	if max <= 0 {
		max = defaultBlockRows
	}
	n := s.d.NumTuples() - s.at
	if n <= 0 {
		return nil, io.EOF
	}
	if n > max {
		n = max
	}
	if cap(s.buf.Labels) < n {
		s.buf.Labels = make([]int, n)
		s.buf.Cols = make([][]float64, s.d.NumAttrs())
		for a := range s.buf.Cols {
			s.buf.Cols[a] = make([]float64, n)
		}
	}
	s.buf.Labels = s.buf.Labels[:n]
	for a := range s.buf.Cols {
		s.buf.Cols[a] = s.buf.Cols[a][:n]
		copy(s.buf.Cols[a], s.d.Cols[a][s.at:s.at+n])
	}
	copy(s.buf.Labels, s.d.Labels[s.at:s.at+n])
	s.at += n
	return &s.buf, nil
}

// CSVSource streams a CSV relation (last column = class) block-wise
// without reading the file into memory. Class names are assigned
// indices in order of first appearance, exactly like ReadCSV, so a
// CSVSource drained into a Collector reproduces ReadCSV's dataset. A
// block with a malformed record fails as a whole: the rows before it in
// the block are not delivered either, and the source stays failed.
type CSVSource struct {
	dec     *csvDecoder
	schema  *Schema
	classes map[string]int
	buf     Block
	err     error
}

// NewCSVSource prepares a streaming CSV reader; the header row is read
// eagerly so Schema is available before the first block.
func NewCSVSource(r io.Reader) (*CSVSource, error) { return newCSVSource(r, 0) }

// newCSVSource is NewCSVSource at the given codec width (<= 0: the
// default).
func newCSVSource(r io.Reader, workers int) (*CSVSource, error) {
	dec, err := newCSVDecoder(r, workers)
	if err != nil {
		return nil, fmt.Errorf("reading header: %w: %w", err, ErrMalformedCSV)
	}
	if len(dec.header) < 2 {
		return nil, fmt.Errorf("need at least one attribute and a class column, got %d columns: %w", len(dec.header), ErrMalformedCSV)
	}
	return &CSVSource{
		dec:     dec,
		schema:  &Schema{AttrNames: append([]string(nil), dec.header[:len(dec.header)-1]...)},
		classes: map[string]int{},
	}, nil
}

// Schema implements Source. ClassNames grows as blocks are read.
func (s *CSVSource) Schema() *Schema { return s.schema }

// Next implements Source.
func (s *CSVSource) Next(max int) (*Block, error) {
	if s.err != nil {
		return nil, s.err
	}
	if max <= 0 {
		max = defaultBlockRows
	}
	if err := s.dec.decode(max, &s.buf, s.class); err != nil {
		s.err = err
		return nil, err
	}
	return &s.buf, nil
}

// class resolves a class name to its label, adding names not seen
// before to the schema in order of first appearance.
func (s *CSVSource) class(name []byte) (int, error) {
	if label, ok := s.classes[string(name)]; ok {
		return label, nil
	}
	c := string(name)
	label := len(s.schema.ClassNames)
	s.classes[c] = label
	s.schema.ClassNames = append(s.schema.ClassNames, c)
	return label, nil
}

// CSVSink writes blocks as CSV in the format of Dataset.WriteCSV: a
// header row, attribute columns first, the class name last. It resolves
// labels against the given schema at Write time, so it composes with a
// streaming source whose ClassNames is still growing. Each Write
// formats the block's rows in parallel and writes them in row order.
type CSVSink struct {
	w     io.Writer
	enc   *csvEncoder
	wrote bool
}

// NewCSVSink returns a Sink writing to w under schema.
func NewCSVSink(w io.Writer, schema *Schema) *CSVSink { return newCSVSink(w, schema, 0) }

// newCSVSink is NewCSVSink at the given codec width (<= 0: the
// default).
func newCSVSink(w io.Writer, schema *Schema, workers int) *CSVSink {
	return &CSVSink{w: w, enc: newCSVEncoder(schema, workers)}
}

// Write implements Sink. A block that does not fit the schema fails
// with ErrSchemaMismatch, a label outside its classes with ErrBadLabel;
// either way nothing of the block is written.
func (s *CSVSink) Write(b *Block) error {
	if err := checkBlock(b, s.enc.schema.NumAttrs()); err != nil {
		return err
	}
	if err := s.enc.checkLabels(b.Labels); err != nil {
		return err
	}
	if err := s.writeHeader(); err != nil {
		return err
	}
	return s.enc.encode(s.w, b, 0, b.NumRows())
}

// writeHeader writes the header row once, before the first row.
func (s *CSVSink) writeHeader() error {
	if s.wrote {
		return nil
	}
	s.wrote = true
	_, err := s.w.Write(s.enc.header())
	return err
}

// Flush implements Sink. An empty stream still gets its header so the
// output is a valid, readable CSV.
func (s *CSVSink) Flush() error { return s.writeHeader() }

// Collector is a Sink that materializes the stream into a Dataset —
// the bridge back from block-wise processing to the in-memory API.
type Collector struct {
	schema *Schema
	d      *Dataset
}

// NewCollector returns a Collector for the given schema. The schema
// may be a streaming source's live schema: class names are resolved at
// Dataset() time, after every block has been written.
func NewCollector(schema *Schema) *Collector {
	d := New(schema.AttrNames, nil)
	return &Collector{schema: schema, d: d}
}

// Write implements Sink.
func (c *Collector) Write(b *Block) error {
	if err := checkBlock(b, c.d.NumAttrs()); err != nil {
		return err
	}
	for a := range b.Cols {
		c.d.Cols[a] = append(c.d.Cols[a], b.Cols[a]...)
	}
	c.d.Labels = append(c.d.Labels, b.Labels...)
	return nil
}

// Flush implements Sink.
func (c *Collector) Flush() error { return nil }

// Dataset finalizes and returns the collected dataset.
func (c *Collector) Dataset() (*Dataset, error) {
	c.d.ClassNames = append([]string(nil), c.schema.ClassNames...)
	for a, names := range c.schema.Categorical {
		if err := c.d.MarkCategorical(a, names); err != nil {
			return nil, err
		}
	}
	if err := c.d.Validate(); err != nil {
		return nil, err
	}
	return c.d, nil
}
