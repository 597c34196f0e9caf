package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallReads hands out at most n bytes per Read, so the decoder refills
// its buffer in the middle of records.
type smallReads struct {
	r io.Reader
	n int
}

func (s *smallReads) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), s.n)]) }

// codecFixture is a dataset whose class names need every kind of CSV
// escaping — one of them a multi-line quoted name longer than the
// decoder's initial buffer, so its records span refills — and whose
// values include NaN, infinities, signed zeros and subnormals.
func codecFixture(t testing.TB, n int) *Dataset {
	t.Helper()
	long := strings.Repeat(`a "long", multi-line`+"\r\nname ", 5000)
	d := New([]string{"x", "y,z", ` "w"`}, []string{"plain", "with,comma", `q"uote`, "", long})
	rng := rand.New(rand.NewSource(3))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, 1e21, 1e-7}
	for i := 0; i < n; i++ {
		row := []float64{rng.NormFloat64() * 1e3, float64(rng.Intn(100)), special[i%len(special)]}
		label := i % 4
		if i == n/3 || i == 2*n/3 {
			label = 4
		}
		if err := d.Append(row, label); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// collect drains src in blocks of chunk rows into a dataset.
func collect(t *testing.T, src Source, chunk int) *Dataset {
	t.Helper()
	col := NewCollector(src.Schema())
	drain(t, src, col, chunk)
	d, err := col.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// rowsOf returns rows [lo, hi) of d as a dataset with d's class names.
func rowsOf(d *Dataset, lo, hi int) *Dataset {
	sub := &Dataset{AttrNames: d.AttrNames, ClassNames: d.ClassNames, Labels: d.Labels[lo:hi]}
	for _, col := range d.Cols {
		sub.Cols = append(sub.Cols, col[lo:hi])
	}
	return sub
}

// TestCSVCodecInvariance checks every CSV reader and writer against the
// encoding/csv reference at several codec widths and block sizes: the
// same datasets, bit for bit, and the same bytes, shard file by shard
// file.
func TestCSVCodecInvariance(t *testing.T) {
	const rows, perShard = 1500, 400
	var text bytes.Buffer
	if err := refWriteCSV(codecFixture(t, rows), &text); err != nil {
		t.Fatal(err)
	}
	want, err := refReadCSV(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Reading folds the "\r\n" inside the quoted class name to "\n", so
	// the bytes every writer must produce are the reference's for want.
	var wantText bytes.Buffer
	if err := refWriteCSV(want, &wantText); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := readCSV(&smallReads{bytes.NewReader(text.Bytes()), 1000}, workers)
		if err != nil {
			t.Fatalf("workers=%d: ReadCSV: %v", workers, err)
		}
		requireBitIdentical(t, want, got)
		var out bytes.Buffer
		if err := want.writeCSV(&out, workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), wantText.Bytes()) {
			t.Fatalf("workers=%d: WriteCSV differs from the reference writer", workers)
		}
		for _, chunk := range []int{1, 64, 4096} {
			t.Run(fmt.Sprintf("workers=%d/chunk=%d", workers, chunk), func(t *testing.T) {
				src, err := newCSVSource(&smallReads{bytes.NewReader(text.Bytes()), 777}, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, want, collect(t, src, chunk))

				var sunk bytes.Buffer
				ds := NewDatasetSource(want)
				drain(t, ds, newCSVSink(&sunk, ds.Schema(), workers), chunk)
				if !bytes.Equal(sunk.Bytes(), wantText.Bytes()) {
					t.Fatal("CSVSink differs from the reference writer")
				}

				prefix := filepath.Join(t.TempDir(), "set")
				ds = NewDatasetSource(want)
				sink, err := newShardedCSVSink(prefix, perShard, ds.Schema(), workers)
				if err != nil {
					t.Fatal(err)
				}
				drain(t, ds, sink, chunk)
				m, err := ReadManifest(sink.ManifestPath())
				if err != nil {
					t.Fatal(err)
				}
				for i, sh := range m.Shards {
					var ref bytes.Buffer
					if err := refWriteCSV(rowsOf(want, i*perShard, min((i+1)*perShard, rows)), &ref); err != nil {
						t.Fatal(err)
					}
					file, err := os.ReadFile(filepath.Join(filepath.Dir(prefix), sh.Path))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(file, ref.Bytes()) {
						t.Fatalf("shard %d differs from the reference writer's bytes for its rows", i)
					}
				}
				sharded, err := OpenSharded(sink.ManifestPath())
				if err != nil {
					t.Fatal(err)
				}
				sharded.workers = workers
				requireBitIdentical(t, want, collect(t, sharded, chunk))
			})
		}
	}
}

// onLine reports whether err is reported on data line line.
func onLine(err error, line int) bool {
	if err == nil {
		return false
	}
	msg, at := err.Error(), fmt.Sprintf("line %d", line)
	return strings.HasPrefix(msg, at+":") || strings.HasPrefix(msg, at+" ") || strings.Contains(msg, ": "+at+":")
}

// TestCSVCodecFirstErrorWins places malformed rows at the boundary of
// two row ranges of a block: the lowest failing row's error must win in
// every reader, and CSVSource must deliver the blocks before the
// failing one and nothing from it on.
func TestCSVCodecFirstErrorWins(t *testing.T) {
	const rows = 3000
	for _, workers := range []int{1, 2, 7} {
		for _, chunk := range []int{64, 2048} {
			// The first row of the second range of the second block.
			n := min(chunk, rows-chunk)
			k := rowRanges(n, workers)
			boundary, _ := rangeBounds(1%k, k, n)
			boundary += chunk
			cases := []struct {
				name string
				bad  map[int]string
				want int // the row whose error must win
			}{
				{"parse error at boundary", map[int]string{
					boundary: "x,1,P", boundary + 1: "1,2", chunk + n - 1: `1,2,"P`}, boundary},
				{"field count before boundary", map[int]string{
					boundary - 1: "1,2,3,P", boundary: "1,y,P"}, boundary - 1},
				{"bare quote at boundary", map[int]string{
					boundary: `1,2,P"`, boundary + 2: "nan?,2,P"}, boundary},
			}
			for _, c := range cases {
				t.Run(fmt.Sprintf("workers=%d/chunk=%d/%s", workers, chunk, c.name), func(t *testing.T) {
					var b strings.Builder
					b.WriteString("a,b,class\n")
					for i := 0; i < rows; i++ {
						if line, ok := c.bad[i]; ok {
							b.WriteString(line + "\n")
						} else {
							fmt.Fprintf(&b, "%d,%g,%c\n", i, float64(i)/7, 'P'+i%3)
						}
					}
					text := b.String()
					line := c.want + 2 // the header is line 1
					if _, err := refReadCSV(strings.NewReader(text)); !onLine(err, line) {
						t.Fatalf("reference error %v, want it on line %d", err, line)
					}
					if _, err := readCSV(strings.NewReader(text), workers); !errors.Is(err, ErrMalformedCSV) || !onLine(err, line) {
						t.Fatalf("ReadCSV error %v, want ErrMalformedCSV on line %d", err, line)
					}

					src, err := newCSVSource(strings.NewReader(text), workers)
					if err != nil {
						t.Fatal(err)
					}
					delivered := 0
					for {
						blk, err := src.Next(chunk)
						if err != nil {
							if !errors.Is(err, ErrMalformedCSV) || !onLine(err, line) {
								t.Fatalf("CSVSource error %v, want ErrMalformedCSV on line %d", err, line)
							}
							break
						}
						delivered += blk.NumRows()
					}
					if want := c.want / chunk * chunk; delivered != want {
						t.Fatalf("CSVSource delivered %d rows before failing, want %d", delivered, want)
					}

					dir := t.TempDir()
					if err := os.WriteFile(filepath.Join(dir, "s-00000.csv"), []byte(text), 0o644); err != nil {
						t.Fatal(err)
					}
					m := &Manifest{Version: 1, AttrNames: []string{"a", "b"}, ClassNames: []string{"P", "Q", "R"},
						Shards: []ShardInfo{{Path: "s-00000.csv", Rows: rows}}}
					sharded := NewShardedSource(m, dir)
					sharded.workers = workers
					defer sharded.Close()
					for {
						_, err := sharded.Next(chunk)
						if err != nil {
							if !errors.Is(err, ErrMalformedCSV) || !onLine(err, line) {
								t.Fatalf("shard reader error %v, want ErrMalformedCSV on line %d", err, line)
							}
							break
						}
					}
				})
			}
		}
	}
}

// TestCSVCodecAllocs is the allocation gate: a warm CSVSource.Next over
// quote-free rows and a warm CSVSink.Write allocate as often for a block
// of 20k rows as for one of 1k — nothing per row or per field.
func TestCSVCodecAllocs(t *testing.T) {
	const runs = 5
	d := streamFixture(t, 20000)
	for _, workers := range []int{1, 2} {
		next := func(rows int) float64 {
			var text bytes.Buffer
			if err := d.WriteCSV(&text); err != nil {
				t.Fatal(err)
			}
			body := text.Bytes()[bytes.IndexByte(text.Bytes(), '\n')+1:]
			text.Write(bytes.Repeat(body, (runs+5)*rows/d.NumTuples()+1))
			src, err := newCSVSource(bytes.NewReader(text.Bytes()), workers)
			if err != nil {
				t.Fatal(err)
			}
			step := func() {
				if _, err := src.Next(rows); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 { // grow the buffers to their steady size
				step()
			}
			return testing.AllocsPerRun(runs, step)
		}
		write := func(rows int) float64 {
			sink := newCSVSink(io.Discard, d.Schema(), workers)
			blk := &Block{Labels: d.Labels[:rows]}
			for _, col := range d.Cols {
				blk.Cols = append(blk.Cols, col[:rows])
			}
			step := func() {
				if err := sink.Write(blk); err != nil {
					t.Fatal(err)
				}
			}
			step()
			return testing.AllocsPerRun(runs, step)
		}
		if small, large := next(1000), next(20000); small != large {
			t.Errorf("workers=%d: CSVSource.Next allocates %v times per 1k-row block, %v per 20k", workers, small, large)
		} else {
			t.Logf("workers=%d: CSVSource.Next allocates %v times per block", workers, small)
		}
		if small, large := write(1000), write(20000); small != large {
			t.Errorf("workers=%d: CSVSink.Write allocates %v times per 1k-row block, %v per 20k", workers, small, large)
		} else {
			t.Logf("workers=%d: CSVSink.Write allocates %v times per block", workers, small)
		}
	}
}

// TestWritersRejectBadBlocks checks that every CSV and shard writer
// turns a ragged block into ErrSchemaMismatch and a label outside the
// schema's classes into ErrBadLabel, instead of panicking.
func TestWritersRejectBadBlocks(t *testing.T) {
	schema := func() *Schema { return &Schema{AttrNames: []string{"a", "b"}, ClassNames: []string{"X"}} }
	writers := map[string]func(t *testing.T, b *Block) error{
		"WriteCSV": func(t *testing.T, b *Block) error {
			d := &Dataset{AttrNames: []string{"a", "b"}, Cols: b.Cols, Labels: b.Labels, ClassNames: []string{"X"}}
			return d.WriteCSV(io.Discard)
		},
		"CSVSink": func(t *testing.T, b *Block) error { return NewCSVSink(io.Discard, schema()).Write(b) },
		"ShardedCSVSink": func(t *testing.T, b *Block) error {
			sink, err := NewShardedCSVSink(filepath.Join(t.TempDir(), "set"), 10, schema())
			if err != nil {
				t.Fatal(err)
			}
			return sink.Write(b)
		},
		"BinaryShardSink": func(t *testing.T, b *Block) error {
			sink, err := NewBinaryShardSink(filepath.Join(t.TempDir(), "set"), 10, schema())
			if err != nil {
				t.Fatal(err)
			}
			return sink.Write(b)
		},
	}
	cases := []struct {
		name string
		blk  *Block
		want error
	}{
		{"short second column", &Block{Cols: [][]float64{{1, 2}, {3}}, Labels: []int{0, 0}}, ErrSchemaMismatch},
		{"long first column", &Block{Cols: [][]float64{{1, 2, 5}, {3, 4}}, Labels: []int{0, 0}}, ErrSchemaMismatch},
		{"missing column", &Block{Cols: [][]float64{{1, 2}}, Labels: []int{0, 0}}, ErrSchemaMismatch},
		{"label past the classes", &Block{Cols: [][]float64{{1, 2}, {3, 4}}, Labels: []int{0, 3}}, ErrBadLabel},
		{"negative label", &Block{Cols: [][]float64{{1, 2}, {3, 4}}, Labels: []int{-1, 0}}, ErrBadLabel},
	}
	for name, write := range writers {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				if err := write(t, c.blk); !errors.Is(err, c.want) {
					t.Fatalf("got %v, want %v", err, c.want)
				}
			})
		}
	}
}

// failingReader yields data and then fails with err.
type failingReader struct {
	data *strings.Reader
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.data.Len() == 0 {
		return 0, f.err
	}
	return f.data.Read(p)
}

// TestReadCSVWrapsReaderError checks that a failing reader's own error
// survives in the chain next to ErrMalformedCSV — even one that wraps
// io.EOF, which must not pass for a clean end of input.
func TestReadCSVWrapsReaderError(t *testing.T) {
	boom := errors.New("boom")
	for _, cause := range []error{boom, fmt.Errorf("short body: %w", io.EOF)} {
		for _, data := range []string{"", "a,cl", "a,class\n1,x\n2,y\n3,"} {
			_, err := ReadCSV(&failingReader{strings.NewReader(data), cause})
			if !errors.Is(err, ErrMalformedCSV) || !errors.Is(err, cause) {
				t.Errorf("data %q, cause %v: got %v, want ErrMalformedCSV wrapping the cause", data, cause, err)
			}
		}
	}
}
