package dataset

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"privtree/internal/parallel"
)

// The CSV codec: one decoder behind every CSV reader (ReadCSV,
// CSVSource, the CSV shard reader) and one encoder behind every CSV
// writer (WriteCSV, CSVSink, ShardedCSVSink). Both work a block at a
// time, cut the block's rows into one contiguous range per worker and
// parse or format the ranges in parallel, and neither makes a string
// per field: values go through strconv straight between reused byte
// buffers and the block's columns.
//
// The decoder accepts exactly what encoding/csv's Reader accepts in its
// default configuration — comma separator, no comments, strict quotes,
// every record as wide as the header — and yields the same fields. The
// encoder writes exactly the bytes of encoding/csv's Writer. The test
// suite keeps encoding/csv as the oracle for both; here its Writer only
// escapes the header and the class names, once per schema.

const (
	// minRangeRows is the fewest rows a worker's range is cut to: below
	// it a goroutine costs more than the rows it would take over.
	minRangeRows = 32
	// maxRangeRows caps the rows the encoder formats into one buffer,
	// so a block of any size (WriteCSV hands over the whole dataset) is
	// written in waves of bounded memory. Blocks of up to workers ×
	// maxRangeRows rows — every block a Source yields by default — are
	// one wave.
	maxRangeRows = 16384
	// minCSVRead is the least free buffer space the decoder reads into;
	// the buffer grows when less is left.
	minCSVRead = 16 << 10
)

// rowRanges returns how many contiguous ranges n rows are cut into at
// the given width.
func rowRanges(n, workers int) int {
	k := min(n/minRangeRows, workers)
	return max(k, 1)
}

// rangeBounds returns the rows [lo, hi) of range j of k over n rows.
func rangeBounds(j, k, n int) (lo, hi int) { return j * n / k, (j + 1) * n / k }

// csvRow locates one data record of the current block. An unquoted
// record spans buf[lo:hi] until it is parsed, which narrows [lo, hi) to
// its class field. A quoted record is parsed while it is found; [lo, hi)
// then locates its class field in quoted.
type csvRow struct {
	lo, hi int
	line   int // physical line the record starts on
	quoted bool
}

// rowError is the first error of one row range and the row it is on.
type rowError struct {
	row int
	err error
}

// csvDecoder reads CSV records block by block from an io.Reader.
type csvDecoder struct {
	r       io.Reader
	buf     []byte // buf[pos:] has been read but not consumed
	pos     int
	rerr    error // sticky: io.EOF or the reader's own error
	line    int   // physical lines consumed
	workers int
	header  []string

	// The current block.
	rows   []csvRow
	quoted []byte     // unescaped fields of the block's quoted records
	ends   []int      // field ends in quoted of the record being parsed
	errs   []rowError // the first error of each row range
}

// newCSVDecoder reads the header record of r and returns a decoder
// positioned on the first data record. workers <= 0 resolves through
// parallel.ResolveWorkers. The error is io.EOF for an input with no
// record at all.
func newCSVDecoder(r io.Reader, workers int) (*csvDecoder, error) {
	d := &csvDecoder{r: r, buf: make([]byte, 0, 4*minCSVRead), workers: parallel.ResolveWorkers(workers)}
	lo, hi, nl, err := d.nextRecordLine()
	if err != nil {
		return nil, err
	}
	if err := d.parseRecord(lo, hi, nl); err != nil {
		return nil, err
	}
	d.header = make([]string, len(d.ends))
	start := 0
	for i, end := range d.ends {
		d.header[i] = string(d.quoted[start:end])
		start = end
	}
	return d, nil
}

// fill reads more input into the buffer, growing it when less than
// minCSVRead bytes are free. Offsets into the buffer stay valid.
func (d *csvDecoder) fill() {
	if cap(d.buf)-len(d.buf) < minCSVRead {
		grown := make([]byte, len(d.buf), 2*cap(d.buf)+minCSVRead)
		copy(grown, d.buf)
		d.buf = grown
	}
	for range 100 {
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			d.rerr = err
			return
		}
		if n > 0 {
			return
		}
	}
	d.rerr = io.ErrNoProgress
}

// readLine consumes the next physical line and returns its bytes as
// buf[lo:hi], normalized as encoding/csv normalizes lines: the "\n" is
// dropped, and so is one "\r" before it or before the end of input. nl
// reports whether the line ended in "\n". The error is io.EOF when no
// input is left, or the reader's own error.
func (d *csvDecoder) readLine() (lo, hi int, nl bool, err error) {
	lo = d.pos
	for from := lo; ; {
		if i := bytes.IndexByte(d.buf[from:], '\n'); i >= 0 {
			hi, nl = from+i, true
			break
		}
		if d.rerr == io.EOF && len(d.buf) > lo {
			hi = len(d.buf)
			break
		}
		if d.rerr != nil {
			return lo, lo, false, d.rerr
		}
		from = len(d.buf)
		d.fill()
	}
	d.pos = hi
	if nl {
		d.pos++
	}
	if hi > lo && d.buf[hi-1] == '\r' {
		hi--
	}
	d.line++
	return lo, hi, nl, nil
}

// nextRecordLine returns the first line of the next record, skipping
// empty lines as encoding/csv does.
func (d *csvDecoder) nextRecordLine() (lo, hi int, nl bool, err error) {
	for {
		lo, hi, nl, err = d.readLine()
		if err != nil || hi > lo {
			return lo, hi, nl, err
		}
	}
}

// parseRecord parses the record whose first line is buf[lo:hi] with
// encoding/csv's rules and appends its unescaped fields to quoted and
// their end offsets to ends. A quoted field may hold commas, "" for a
// quote, and line breaks, so the record may run over further lines.
func (d *csvDecoder) parseRecord(lo, hi int, nl bool) error {
	d.ends = d.ends[:0]
	line := d.buf[lo:hi]
	for {
		if len(line) == 0 || line[0] != '"' {
			field := line
			i := bytes.IndexByte(line, ',')
			if i >= 0 {
				field = line[:i]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return csv.ErrBareQuote
			}
			d.quoted = append(d.quoted, field...)
			d.ends = append(d.ends, len(d.quoted))
			if i < 0 {
				return nil
			}
			line = line[i+1:]
			continue
		}
		line = line[1:]
	quotedField:
		for {
			i := bytes.IndexByte(line, '"')
			if i < 0 {
				if len(line) == 0 && !nl {
					return csv.ErrQuote // the input ends inside the quotes
				}
				d.quoted = append(d.quoted, line...)
				if nl {
					d.quoted = append(d.quoted, '\n')
				}
				var err error
				if lo, hi, nl, err = d.readLine(); err != nil && err != io.EOF {
					return err
				}
				line = d.buf[lo:hi] // empty at EOF, so the next pass fails
				continue
			}
			d.quoted = append(d.quoted, line[:i]...)
			line = line[i+1:]
			switch {
			case len(line) > 0 && line[0] == '"':
				d.quoted = append(d.quoted, '"')
				line = line[1:]
			case len(line) > 0 && line[0] == ',':
				d.ends = append(d.ends, len(d.quoted))
				line = line[1:]
				break quotedField
			case len(line) == 0:
				d.ends = append(d.ends, len(d.quoted))
				return nil
			default:
				return csv.ErrQuote
			}
		}
	}
}

// malformed wraps a record's CSV error with its line.
func malformed(line int, err error) error {
	return fmt.Errorf("line %d: %w: %w", line, err, ErrMalformedCSV)
}

// fieldCountError reports a record of the wrong width.
func (d *csvDecoder) fieldCountError(line, got int) error {
	return malformed(line, fmt.Errorf("%d fields, want %d: %w", got, len(d.header), csv.ErrFieldCount))
}

// parseValue parses attribute a of the record on the given line.
func (d *csvDecoder) parseValue(field []byte, a, line int) (float64, error) {
	v, err := strconv.ParseFloat(string(field), 64)
	if err != nil {
		return 0, malformed(line, fmt.Errorf("attribute %q: %w", d.header[a], err))
	}
	return v, nil
}

// scan finds up to max data records, serially. Records holding a quote
// are parsed on the spot, their values into row len(d.rows) of cols;
// the rest are left to parseRows. scan returns the error of the record
// it stopped on, which comes after every record it found.
func (d *csvDecoder) scan(max int, cols [][]float64) error {
	for len(d.rows) < max {
		lo, hi, nl, err := d.nextRecordLine()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return malformed(d.line+1, err)
		}
		row := csvRow{lo: lo, hi: hi, line: d.line}
		if bytes.IndexByte(d.buf[lo:hi], '"') >= 0 {
			start := len(d.quoted)
			if err := d.parseRecord(lo, hi, nl); err != nil {
				return malformed(row.line, err)
			}
			if len(d.ends) != len(d.header) {
				return d.fieldCountError(row.line, len(d.ends))
			}
			for a, end := range d.ends[:len(d.ends)-1] {
				v, err := d.parseValue(d.quoted[start:end], a, row.line)
				if err != nil {
					return err
				}
				cols[a][len(d.rows)] = v
				start = end
			}
			row.lo, row.hi, row.quoted = start, len(d.quoted), true
		}
		d.rows = append(d.rows, row)
	}
	return nil
}

// parseRows parses the unquoted records among rows [lo, hi) into cols
// and narrows each to its class field. It stops at the first malformed
// record and returns its error.
func (d *csvDecoder) parseRows(cols [][]float64, lo, hi int) rowError {
	m := len(d.header) - 1
	for i := lo; i < hi; i++ {
		row := &d.rows[i]
		if row.quoted {
			continue
		}
		at := row.lo
		for a := 0; a < m; a++ {
			c := bytes.IndexByte(d.buf[at:row.hi], ',')
			if c < 0 {
				return rowError{i, d.widthError(row)}
			}
			v, err := d.parseValue(d.buf[at:at+c], a, row.line)
			if err != nil {
				return rowError{i, err}
			}
			cols[a][i] = v
			at += c + 1
		}
		if bytes.IndexByte(d.buf[at:row.hi], ',') >= 0 {
			return rowError{i, d.widthError(row)}
		}
		row.lo = at
	}
	return rowError{}
}

// widthError reports an unquoted record with the wrong number of fields.
func (d *csvDecoder) widthError(row *csvRow) error {
	return d.fieldCountError(row.line, bytes.Count(d.buf[row.lo:row.hi], []byte{','})+1)
}

// decode fills blk with the next up to max records. Their values are
// parsed in parallel; their class fields are then resolved to labels
// through class serially, in row order, so class may keep
// order-of-first-appearance state. decode returns io.EOF when no record
// is left, and otherwise the first error in row order: every row before
// it has been resolved, none after it.
func (d *csvDecoder) decode(max int, blk *Block, class func(name []byte) (int, error)) error {
	n := copy(d.buf, d.buf[d.pos:])
	d.buf, d.pos = d.buf[:n], 0
	d.rows, d.quoted = d.rows[:0], d.quoted[:0]
	m := len(d.header) - 1
	if len(blk.Cols) != m {
		blk.Cols = make([][]float64, m)
	}
	for a := range blk.Cols {
		if cap(blk.Cols[a]) < max {
			blk.Cols[a] = make([]float64, max)
		}
		blk.Cols[a] = blk.Cols[a][:max]
	}
	if cap(blk.Labels) < max {
		blk.Labels = make([]int, max)
	}

	err := d.scan(max, blk.Cols)
	rows := len(d.rows)
	stop := rows
	if rows > 0 {
		k := rowRanges(rows, d.workers)
		if len(d.errs) < k {
			d.errs = make([]rowError, k)
		}
		errs := d.errs[:k]
		if k == 1 {
			errs[0] = d.parseRows(blk.Cols, 0, rows)
		} else {
			_ = parallel.ForEach(context.Background(), k, k, func(j int) error {
				lo, hi := rangeBounds(j, k, rows)
				errs[j] = d.parseRows(blk.Cols, lo, hi)
				return nil
			})
		}
		for _, e := range errs {
			if e.err != nil {
				stop, err = e.row, e.err
				break
			}
		}
	}
	blk.Labels = blk.Labels[:rows]
	for i := range stop {
		row := &d.rows[i]
		name := d.buf[row.lo:row.hi]
		if row.quoted {
			name = d.quoted[row.lo:row.hi]
		}
		label, cerr := class(name)
		if cerr != nil {
			return fmt.Errorf("line %d: %w", row.line, cerr)
		}
		blk.Labels[i] = label
	}
	if err != nil {
		return err
	}
	if rows == 0 {
		return io.EOF
	}
	for a := range blk.Cols {
		blk.Cols[a] = blk.Cols[a][:rows]
	}
	return nil
}

// escapeCSV returns fields as encoding/csv writes them: one record,
// ending in "\n".
func escapeCSV(fields ...string) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	_ = w.Write(fields) // a bytes.Buffer does not fail
	w.Flush()
	return b.Bytes()
}

// csvEncoder formats blocks as CSV rows under a schema, in the format
// of Dataset.WriteCSV: the attribute values first, the class name last.
// Values are written in strconv's shortest 'g' form, which never needs
// quoting; names are escaped once.
type csvEncoder struct {
	schema  *Schema
	workers int
	head    []byte   // the escaped header line
	names   []string // the class names escaped below
	escaped [][]byte
	bufs    [][]byte // one per range, reused across blocks
}

// newCSVEncoder returns an encoder for schema. workers <= 0 resolves
// through parallel.ResolveWorkers.
func newCSVEncoder(schema *Schema, workers int) *csvEncoder {
	return &csvEncoder{schema: schema, workers: parallel.ResolveWorkers(workers)}
}

// header returns the header line: the attribute names and "class".
func (e *csvEncoder) header() []byte {
	if e.head == nil {
		e.head = escapeCSV(append(append([]string(nil), e.schema.AttrNames...), "class")...)
	}
	return e.head
}

// checkLabels escapes the schema's class names not escaped yet — a
// streaming source's schema grows them between blocks — and checks
// every label against them.
func (e *csvEncoder) checkLabels(labels []int) error {
	names := e.schema.ClassNames
	for i, name := range names {
		if i < len(e.names) && e.names[i] == name {
			continue
		}
		esc := escapeCSV(name)
		e.names = append(e.names[:i], name)
		e.escaped = append(e.escaped[:i], esc[:len(esc)-1])
	}
	e.names, e.escaped = e.names[:len(names)], e.escaped[:len(names)]
	for _, l := range labels {
		if l < 0 || l >= len(names) {
			return fmt.Errorf("block label %d outside schema classes: %w", l, ErrBadLabel)
		}
	}
	return nil
}

// encode formats rows [lo, hi) of b, which has passed checkBlock and
// checkLabels, and writes them to w in row order.
func (e *csvEncoder) encode(w io.Writer, b *Block, lo, hi int) error {
	for lo < hi {
		n := min(hi-lo, e.workers*maxRangeRows)
		k := rowRanges(n, e.workers)
		for len(e.bufs) < k {
			e.bufs = append(e.bufs, nil)
		}
		bufs, start := e.bufs[:k], lo
		if k == 1 {
			bufs[0] = e.appendRows(bufs[0][:0], b, start, start+n)
		} else {
			_ = parallel.ForEach(context.Background(), k, k, func(j int) error {
				from, to := rangeBounds(j, k, n)
				bufs[j] = e.appendRows(bufs[j][:0], b, start+from, start+to)
				return nil
			})
		}
		for _, buf := range bufs {
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		lo += n
	}
	return nil
}

// appendRows appends rows [lo, hi) of b to dst, one line each.
func (e *csvEncoder) appendRows(dst []byte, b *Block, lo, hi int) []byte {
	for i := lo; i < hi; i++ {
		for _, col := range b.Cols {
			dst = strconv.AppendFloat(dst, col[i], 'g', -1, 64)
			dst = append(dst, ',')
		}
		dst = append(dst, e.escaped[b.Labels[i]]...)
		dst = append(dst, '\n')
	}
	return dst
}

// checkBlock reports a block that does not fit a schema of m
// attributes: the wrong number of columns, or a column whose length
// differs from the number of labels.
func checkBlock(b *Block, m int) error {
	if len(b.Cols) != m {
		return fmt.Errorf("block has %d columns, schema %d: %w", len(b.Cols), m, ErrSchemaMismatch)
	}
	for a, col := range b.Cols {
		if len(col) != len(b.Labels) {
			return fmt.Errorf("block column %d has %d rows, %d labels: %w", a, len(col), len(b.Labels), ErrSchemaMismatch)
		}
	}
	return nil
}
