package pipeline

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/transform"
)

// TestApplyStreamMatchesApply pins the streaming apply stage against the
// materialized path at several chunk sizes and worker counts.
func TestApplyStreamMatchesApply(t *testing.T) {
	d := legacyWorkloads(t, 500)["covertype-full"]
	want, key, err := Encode(d, Options{Strategy: StrategyMaxMP}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	outSchema, err := OutputSchema(key, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{0, 1, 37, 500, 9999} {
		for _, workers := range []int{1, 4} {
			src := dataset.NewDatasetSource(d)
			col := dataset.NewCollector(outSchema)
			if err := ApplyStream(noCtx, key, src, col, chunk, workers); err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
			}
			got, err := col.Dataset()
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(got) {
				t.Fatalf("chunk=%d workers=%d: streamed apply differs from Apply", chunk, workers)
			}
		}
	}
}

// TestApplyStreamCSVRoundTrip pushes a dataset through the full
// streaming path — DatasetSource → ApplyStream → CSVSink — and checks
// the bytes against WriteCSV of the materialized encode.
func TestApplyStreamCSVRoundTrip(t *testing.T) {
	d := legacyWorkloads(t, 300)["census"]
	want, key, err := Encode(d, Options{Strategy: StrategyBP}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := want.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	outSchema, err := OutputSchema(key, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var gotCSV bytes.Buffer
	sink := dataset.NewCSVSink(&gotCSV, outSchema)
	if err := ApplyStream(noCtx, key, dataset.NewDatasetSource(d), sink, 128, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantCSV.Bytes(), gotCSV.Bytes()) {
		t.Fatal("streamed CSV differs from materialized WriteCSV")
	}
}

func TestOutputSchemaOpaqueCategories(t *testing.T) {
	d := legacyWorkloads(t, 200)["covertype-full"]
	_, key, err := Encode(d, Options{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	in := d.Schema()
	out, err := OutputSchema(key, in)
	if err != nil {
		t.Fatal(err)
	}
	opaque := 0
	for a, ak := range key.Attrs {
		if !ak.Categorical {
			continue
		}
		opaque++
		names := out.Categorical[a]
		if len(names) != len(in.Categorical[a]) {
			t.Fatalf("attr %d: category count changed", a)
		}
		for c, name := range names {
			if name == in.Categorical[a][c] {
				t.Fatalf("attr %d category %d: real name %q leaked into output schema", a, c, name)
			}
		}
	}
	if opaque == 0 {
		t.Fatal("workload has no categorical attribute; test is vacuous")
	}
	// A schema read from CSV carries no category names: the key's
	// categorical attributes have none to hide, and none appear.
	bare := &dataset.Schema{AttrNames: in.AttrNames, ClassNames: in.ClassNames}
	if out, err := OutputSchema(key, bare); err != nil || len(out.Categorical) != 0 {
		t.Fatalf("OutputSchema over a schema without category names = %v, %v", out.Categorical, err)
	}
}

func TestApplyStreamKeyMismatch(t *testing.T) {
	d := legacyWorkloads(t, 50)["wdbc"]
	_, key, err := Encode(d, Options{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	short := &transform.Key{Attrs: key.Attrs[:len(key.Attrs)-1]}

	if _, err := OutputSchema(short, d.Schema()); !errors.Is(err, transform.ErrKeyMismatch) {
		t.Fatalf("OutputSchema: got %v, want ErrKeyMismatch", err)
	}
	err = ApplyStream(noCtx, short, dataset.NewDatasetSource(d), dataset.NewCollector(d.Schema()), 0, 0)
	if !errors.Is(err, transform.ErrKeyMismatch) {
		t.Fatalf("ApplyStream: got %v, want ErrKeyMismatch", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageApply {
		t.Fatalf("ApplyStream error %v does not carry StageApply", err)
	}
}
