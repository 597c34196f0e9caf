package dataset

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadCSV checks the CSV decoder against the encoding/csv
// reference at codec widths 1 and 3: it must accept exactly the inputs
// the reference accepts — rejecting the rest with ErrMalformedCSV, as
// the reference does — and decode accepted inputs to bit-identical
// datasets, which must validate and round-trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b,class\n1,2,x\n3,4,y\n")
	f.Add("a,class\n1.5,x\n")
	f.Add("")
	f.Add("a,class\nNaN,x\n")
	f.Add("a,class\n1e308,x\n1e308,x\n")
	f.Fuzz(func(t *testing.T, in string) {
		// The input as given, and with everything after its first line
		// repeated until the records span several row ranges.
		header, body, _ := strings.Cut(in, "\n")
		for _, in := range []string{in, header + "\n" + strings.Repeat(body+"\n", 3*minRangeRows)} {
			fuzzReadCSV(t, in)
		}
	})
}

// fuzzReadCSV is one FuzzReadCSV check of in.
func fuzzReadCSV(t *testing.T, in string) {
	want, werr := refReadCSV(strings.NewReader(in))
	for _, workers := range []int{1, 3} {
		d, err := readCSV(strings.NewReader(in), workers)
		if (err == nil) != (werr == nil) {
			t.Fatalf("workers=%d: error %v, reference error %v\ninput: %q", workers, err, werr, in)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedCSV) || !errors.Is(werr, ErrMalformedCSV) {
				t.Fatalf("workers=%d: error %v, reference error %v: want both ErrMalformedCSV", workers, err, werr)
			}
			continue
		}
		requireBitIdentical(t, want, d)
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted CSV fails validation: %v\ninput: %q", err, in)
		}
		var buf bytes.Buffer
		if err := d.writeCSV(&buf, workers); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := readCSV(&buf, workers)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if back.NumTuples() != d.NumTuples() || back.NumAttrs() != d.NumAttrs() {
			t.Fatalf("round trip changed dimensions")
		}
	}
}

// FuzzWriteCSV checks the CSV encoder against the encoding/csv
// reference writer at codec widths 1 and 3: the same bytes for any
// attribute name, class names and values. Rows of two attributes carry
// the three fuzzed values in every column and class position, repeated
// until they span several row ranges.
func FuzzWriteCSV(f *testing.F) {
	names := []string{"a,b", `say "hi"`, "cr\rhere", "two\nlines", " lead", `\.`, "", "plain"}
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, 2.2250738585072e-310, 1e21, 1e-7, -123.456}
	for i := range names {
		f.Add(names[i], names[(i+1)%len(names)], names[(i+2)%len(names)],
			values[i%len(values)], values[(i+3)%len(values)], math.Float64bits(values[(i+7)%len(values)]))
	}
	f.Fuzz(func(t *testing.T, attr, class0, class1 string, v0, v1 float64, bits uint64) {
		v2 := math.Float64frombits(bits)
		d := New([]string{attr, class1}, []string{class0, class1})
		for range minRangeRows {
			d.Cols[0] = append(d.Cols[0], v0, v1, v2)
			d.Cols[1] = append(d.Cols[1], v2, v0, v1)
			d.Labels = append(d.Labels, 0, 1, 0)
		}
		var want bytes.Buffer
		if err := refWriteCSV(d, &want); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			var got bytes.Buffer
			if err := d.writeCSV(&got, workers); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("workers=%d: wrote %q, reference %q", workers, got.Bytes(), want.Bytes())
			}
		}
	})
}

// fuzzShardBytes builds a small valid binary shard (2 attrs, 2
// classes, 3 rows) and returns its file bytes and manifest checksum —
// the honest baseline the fuzzer mutates from.
func fuzzShardBytes(f *testing.F) ([]byte, string) {
	f.Helper()
	dir := f.TempDir()
	schema := &Schema{AttrNames: []string{"x", "y"}, ClassNames: []string{"a", "b"}}
	sink, err := NewBinaryShardSink(dir+"/seed", 10, schema)
	if err != nil {
		f.Fatal(err)
	}
	blk := &Block{
		Cols:   [][]float64{{1, 2.5, -3}, {0, 1e9, 0.125}},
		Labels: []int{0, 1, 0},
	}
	if err := sink.Write(blk); err != nil {
		f.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		f.Fatal(err)
	}
	m, err := ReadManifest(sink.ManifestPath())
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, m.Shards[0].Path))
	if err != nil {
		f.Fatal(err)
	}
	return data, m.Shards[0].Checksum
}

// FuzzReadBinaryShard drives the binary shard reader with arbitrary
// bytes, declared row counts and checksum strings. The contract: never
// panic, and every failure is one of the typed sentinels
// (ErrCorruptShard for broken file bytes, ErrBadManifest for a
// description the bytes contradict). A stream that reads clean to EOF
// must have delivered exactly the declared rows with in-range labels.
func FuzzReadBinaryShard(f *testing.F) {
	valid, sum := fuzzShardBytes(f)
	f.Add(valid, 3, sum)                      // pristine
	f.Add(valid, 5, sum)                      // row-count lie
	f.Add(valid, 3, "xxh64:0000000000000000") // checksum mismatch
	f.Add(valid, 3, "not-a-checksum")         // malformed checksum string
	f.Add(valid[:binHeaderSize-2], 3, "")     // truncated header
	f.Add(valid[:len(valid)-5], 3, "")        // truncated trailer
	corrupt := bytes.Clone(valid)
	corrupt[binHeaderSize+6] ^= 0xFF // flip a payload byte
	f.Add(corrupt, 3, sum)
	f.Add([]byte("PVTB"), 0, "")
	f.Add([]byte{}, 0, "")
	f.Fuzz(func(t *testing.T, data []byte, declared int, checksum string) {
		schema := &Schema{AttrNames: []string{"x", "y"}, ClassNames: []string{"a", "b"}}
		src, err := NewBinaryShardSource(io.NopCloser(bytes.NewReader(data)), "fuzz", schema, declared, checksum)
		if err != nil {
			requireTypedShardErr(t, err)
			return
		}
		rows := 0
		for {
			blk, err := src.Next(0)
			if err == io.EOF {
				break
			}
			if err != nil {
				requireTypedShardErr(t, err)
				src.Close()
				return
			}
			for _, l := range blk.Labels {
				if l < 0 || l >= len(schema.ClassNames) {
					t.Fatalf("accepted out-of-range label %d", l)
				}
			}
			rows += len(blk.Labels)
		}
		if rows != declared {
			t.Fatalf("clean EOF after %d rows, declared %d", rows, declared)
		}
	})
}

// requireTypedShardErr fails unless err is one of the documented
// sentinels of the binary shard reader.
func requireTypedShardErr(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorruptShard) && !errors.Is(err, ErrBadManifest) {
		t.Fatalf("untyped error from binary shard reader: %v", err)
	}
}
