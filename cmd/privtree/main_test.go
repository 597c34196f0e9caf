package main

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privtree"
	"privtree/internal/dataset"
	"privtree/internal/synth"
)

func writeFixture(t *testing.T, dir string) string {
	t.Helper()
	d, err := synth.Covertype(rand.New(rand.NewSource(1)), 800)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "train.csv")
	if err := privtree.WriteCSVFile(d, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEncodeMineDecodeWorkflow(t *testing.T) {
	dir := t.TempDir()
	train := writeFixture(t, dir)
	enc := filepath.Join(dir, "enc.csv")
	key := filepath.Join(dir, "key.json")

	if err := cmdEncode([]string{"-in", train, "-out", enc, "-key", key, "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(enc); err != nil {
		t.Fatal("encoded CSV missing")
	}
	if fi, err := os.Stat(key); err != nil || fi.Size() == 0 {
		t.Fatal("key file missing or empty")
	}
	if err := cmdMine([]string{"-in", enc, "-minleaf", "20"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecode([]string{"-in", enc, "-orig", train, "-key", key, "-minleaf", "20"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRisk([]string{"-in", train, "-trials", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestCommandFlagValidation(t *testing.T) {
	if err := cmdEncode([]string{"-in", "x"}); err == nil {
		t.Error("encode without -out/-key should fail")
	}
	if err := cmdMine(nil); err == nil {
		t.Error("mine without -in should fail")
	}
	if err := cmdDecode(nil); err == nil {
		t.Error("decode without flags should fail")
	}
	if err := cmdRisk(nil); err == nil {
		t.Error("risk without -in should fail")
	}
	if err := cmdMine([]string{"-in", "missing.csv"}); err == nil {
		t.Error("mine of missing file should fail")
	}
	if err := cmdMine([]string{"-in", "x.csv", "-criterion", "nope"}); err == nil {
		t.Error("unknown criterion should fail")
	}
	dir := t.TempDir()
	train := writeFixture(t, dir)
	if err := cmdEncode([]string{"-in", train, "-out", filepath.Join(dir, "e.csv"), "-key", filepath.Join(dir, "k.json"), "-strategy", "bogus"}); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestErrorClassification(t *testing.T) {
	// Usage mistakes must surface as usageError (exit 2); runtime
	// failures must not (exit 1).
	usageCases := map[string]error{
		"missing flags":    cmdEncode([]string{"-in", "x"}),
		"unknown strategy": func() error { _, err := strategyFlag("bogus"); return err }(),
		"mine no -in":      cmdMine(nil),
		"decode no flags":  cmdDecode(nil),
		"risk no -in":      cmdRisk(nil),
		"append no flags":  cmdAppend(nil),
	}
	for name, err := range usageCases {
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: %v is not a usageError", name, err)
		}
	}
	runtimeCases := map[string]error{
		"missing input file": cmdMine([]string{"-in", "missing.csv"}),
		"missing key file":   cmdDecode([]string{"-in", "e.csv", "-orig", "t.csv", "-key", "nope.json"}),
	}
	for name, err := range runtimeCases {
		if err == nil {
			t.Errorf("%s: expected an error", name)
			continue
		}
		var ue usageError
		if errors.As(err, &ue) {
			t.Errorf("%s: %v wrongly classified as usage error", name, err)
		}
	}
}

func TestStrategyFlag(t *testing.T) {
	for name, want := range map[string]privtree.EncodeOptions{
		"none":  {Strategy: privtree.StrategyNone},
		"bp":    {Strategy: privtree.StrategyBP},
		"maxmp": {Strategy: privtree.StrategyMaxMP},
	} {
		got, err := strategyFlag(name)
		if err != nil || got.Strategy != want.Strategy {
			t.Errorf("strategyFlag(%q) = %v, %v", name, got.Strategy, err)
		}
	}
	if _, err := strategyFlag("?"); err == nil {
		t.Error("expected error for unknown strategy")
	}
}

func TestMineToFileAndDecodeFromTree(t *testing.T) {
	dir := t.TempDir()
	train := writeFixture(t, dir)
	enc := filepath.Join(dir, "enc.csv")
	key := filepath.Join(dir, "key.json")
	treeJSON := filepath.Join(dir, "tree.json")
	if err := cmdEncode([]string{"-in", train, "-out", enc, "-key", key}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMine([]string{"-in", enc, "-minleaf", "20", "-out", treeJSON}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(treeJSON); err != nil || fi.Size() == 0 {
		t.Fatal("tree JSON missing")
	}
	if err := cmdDecode([]string{"-tree", treeJSON, "-orig", train, "-key", key, "-minleaf", "20"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecode([]string{"-tree", filepath.Join(dir, "missing.json"), "-orig", train, "-key", key}); err == nil {
		t.Error("expected error for missing tree file")
	}
}

func TestAppendWorkflow(t *testing.T) {
	dir := t.TempDir()
	train := writeFixture(t, dir)
	enc := filepath.Join(dir, "enc.csv")
	key := filepath.Join(dir, "key.json")
	if err := cmdEncode([]string{"-in", train, "-out", enc, "-key", key}); err != nil {
		t.Fatal(err)
	}
	// A batch that repeats the first rows of the training data is
	// always key-compatible.
	d, err := privtree.ReadCSVFile(train)
	if err != nil {
		t.Fatal(err)
	}
	b := d.Subset([]int{0, 1, 2})
	batchPath := filepath.Join(dir, "batch.csv")
	if err := privtree.WriteCSVFile(b, batchPath); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "batch_enc.csv")
	if err := cmdAppend([]string{"-orig", train, "-batch", batchPath, "-key", key, "-out", out}); err != nil {
		t.Fatal(err)
	}
	encBatch, err := privtree.ReadCSVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if encBatch.NumTuples() != 3 {
		t.Errorf("encoded batch has %d tuples", encBatch.NumTuples())
	}
	if err := cmdAppend(nil); err == nil {
		t.Error("append without flags should fail")
	}
}

// writeShardedFixture writes the rows of a CSV file as a sharded set
// named after the file and returns the manifest path. The rows are the
// CSV round-trip of the file, so -in on the CSV and -manifest on the
// shards see identical values.
func writeShardedFixture(t *testing.T, dir, csvPath string, rowsPerShard int) string {
	t.Helper()
	d, err := privtree.ReadCSVFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, strings.TrimSuffix(filepath.Base(csvPath), ".csv"))
	sink, err := dataset.NewShardedCSVSink(prefix, rowsPerShard, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.NewDatasetSource(d)
	for {
		blk, err := src.Next(0)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Write(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.ManifestPath()
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what f printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEncodeManifestMatchesInMemory pins the CLI-level byte identity:
// encode -manifest produces exactly the CSV and key that encode -in
// produces on the same rows and seed, mine -manifest writes exactly the
// tree JSON of mine -in, decode -enc-manifest prints exactly the
// decoded tree of decode -in, and verify accepts the manifest form.
func TestEncodeManifestMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	train := writeFixture(t, dir)
	manifest := writeShardedFixture(t, dir, train, 150)

	encMem := filepath.Join(dir, "enc_mem.csv")
	keyMem := filepath.Join(dir, "key_mem.json")
	if err := cmdEncode([]string{"-in", train, "-out", encMem, "-key", keyMem, "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	encSh := filepath.Join(dir, "enc_sh.csv")
	keySh := filepath.Join(dir, "key_sh.json")
	if err := cmdEncode([]string{"-manifest", manifest, "-out", encSh, "-key", keySh, "-seed", "3", "-workers", "4"}); err != nil {
		t.Fatal(err)
	}

	for _, pair := range [][2]string{{encMem, encSh}, {keyMem, keySh}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ", pair[0], pair[1])
		}
	}

	encManifest := writeShardedFixture(t, dir, encSh, 110)
	treeMem := filepath.Join(dir, "tree_mem.json")
	treeSh := filepath.Join(dir, "tree_sh.json")
	if err := cmdMine([]string{"-in", encMem, "-minleaf", "20", "-out", treeMem}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMine([]string{"-manifest", encManifest, "-minleaf", "20", "-workers", "4", "-out", treeSh}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(treeMem)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(treeSh); err != nil || !bytes.Equal(a, b) {
		t.Errorf("mine -manifest wrote a different tree than mine -in (%v)", err)
	}

	decMem := captureStdout(t, func() error {
		return cmdDecode([]string{"-in", encMem, "-orig", train, "-key", keyMem, "-minleaf", "20"})
	})
	decSh := captureStdout(t, func() error {
		return cmdDecode([]string{"-enc-manifest", encManifest, "-manifest", manifest, "-key", keySh, "-minleaf", "20"})
	})
	if decSh != decMem {
		t.Errorf("decode -enc-manifest printed\n%s\ndecode -in printed\n%s", decSh, decMem)
	}
	if !strings.Contains(decMem, "identical to direct mining: true") {
		t.Errorf("decode output does not report the guarantee:\n%s", decMem)
	}
	if err := cmdVerify([]string{"-manifest", manifest, "-key", keySh, "-minleaf", "20"}); err != nil {
		t.Fatal(err)
	}
}

// TestManifestFlagValidation checks the -in/-manifest exclusivity.
func TestManifestFlagValidation(t *testing.T) {
	var ue usageError
	if err := cmdEncode([]string{"-in", "a.csv", "-manifest", "b.json", "-out", "o", "-key", "k"}); !errors.As(err, &ue) {
		t.Error("encode with both -in and -manifest should be a usage error")
	}
	if err := cmdDecode([]string{"-in", "e.csv", "-orig", "a.csv", "-manifest", "b.json", "-key", "k"}); !errors.As(err, &ue) {
		t.Error("decode with both -orig and -manifest should be a usage error")
	}
	if err := cmdVerify([]string{"-in", "a.csv", "-manifest", "b.json", "-key", "k"}); !errors.As(err, &ue) {
		t.Error("verify with both -in and -manifest should be a usage error")
	}
	if err := cmdEncode([]string{"-manifest", "missing.json", "-out", "o", "-key", "k"}); err == nil || errors.As(err, &ue) {
		t.Error("encode of missing manifest should be a runtime error")
	}
}
