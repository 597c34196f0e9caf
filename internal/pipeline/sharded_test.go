package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/synth"
	"privtree/internal/transform"
)

// writeShardedSet writes d as a sharded set under dir and opens it.
func writeShardedSet(t *testing.T, d *dataset.Dataset, dir string, rowsPerShard int) *dataset.ShardedSource {
	t.Helper()
	sink, err := dataset.NewShardedCSVSink(filepath.Join(dir, "set"), rowsPerShard, d.Schema())
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
	ms, err := dataset.OpenSharded(sink.ManifestPath())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	return ms
}

// shardedFixture builds a covertype-like dataset and its sharded
// on-disk twin. The dataset is round-tripped through CSV text first so
// its float values match the sharded set's parse exactly.
func shardedFixture(t *testing.T, n, rowsPerShard int) (*dataset.Dataset, *dataset.ShardedSource) {
	t.Helper()
	raw, err := synth.Covertype(rand.New(rand.NewSource(23)), n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d, writeShardedSet(t, d, t.TempDir(), rowsPerShard)
}

// keyBytes marshals a key or fails the test.
func keyBytes(t *testing.T, k *transform.Key) []byte {
	t.Helper()
	b, err := transform.MarshalKey(k)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildKeyShardedOracle pins the tentpole claim on the key side:
// the two-pass streaming profile feeds assembleKey the same Groups the
// in-memory profile computes, so the sharded key is byte-identical to
// BuildKeyArtifacts' at the same seed — per strategy, at several
// worker counts, including workers > shards.
func TestBuildKeyShardedOracle(t *testing.T) {
	d, ms := shardedFixture(t, 300, 70)
	for _, strat := range []Strategy{StrategyNone, StrategyBP, StrategyMaxMP} {
		opts := Options{Strategy: strat, Workers: 1}
		refKey, refArts, err := BuildKeyArtifacts(d, opts, rand.New(rand.NewSource(41)))
		if err != nil {
			t.Fatal(err)
		}
		ref := keyBytes(t, refKey)
		for _, workers := range []int{1, 3, 16} {
			opts.Workers = workers
			key, arts, err := BuildKeyArtifacts(ms, opts, rand.New(rand.NewSource(41)))
			if err != nil {
				t.Fatalf("%v workers=%d: %v", strat, workers, err)
			}
			if !bytes.Equal(keyBytes(t, key), ref) {
				t.Errorf("%v workers=%d: sharded key differs from in-memory key", strat, workers)
			}
			if len(arts) != len(refArts) {
				t.Fatalf("%v workers=%d: %d artifacts, want %d", strat, workers, len(arts), len(refArts))
			}
			for a := range arts {
				if len(arts[a].Groups) != len(refArts[a].Groups) {
					t.Fatalf("%v workers=%d attr %d: %d groups, want %d",
						strat, workers, a, len(arts[a].Groups), len(refArts[a].Groups))
				}
				for g := range arts[a].Groups {
					if arts[a].Groups[g] != refArts[a].Groups[g] {
						t.Fatalf("%v workers=%d attr %d group %d: %+v, want %+v",
							strat, workers, a, g, arts[a].Groups[g], refArts[a].Groups[g])
					}
				}
			}
		}
	}
}

// TestBuildKeyNaNFailsAtDraw pins encode's one NaN behaviour. The
// grouping sorts every NaN group to an end of the domain, so the draw
// stage meets a NaN interval bound and reports it against the
// attribute — in memory and sharded alike, whether the NaNs sit in one
// shard or in all of them.
func TestBuildKeyNaNFailsAtDraw(t *testing.T) {
	const n = 900
	for _, rows := range [][]int{{100, 200}, {100, 400, 700}} {
		rng := rand.New(rand.NewSource(5))
		d := dataset.New([]string{"w", "x"}, []string{"a", "b"})
		for i := 0; i < n; i++ {
			if err := d.Append([]float64{float64(rng.Intn(50)), float64(rng.Intn(80))}, rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range rows {
			d.Cols[1][r] = math.NaN()
		}
		check := func(how string, err error) {
			t.Helper()
			var se *StageError
			if !errors.As(err, &se) || se.Stage != StageDraw || se.Attr != "x" || !errors.Is(err, transform.ErrInvalidPiece) {
				t.Fatalf("NaN at rows %v, %s: got %v, want a draw-stage error on x wrapping ErrInvalidPiece", rows, how, err)
			}
		}
		opts := Options{Strategy: StrategyMaxMP, Workers: 2}
		_, err := BuildKey(d, opts, rand.New(rand.NewSource(1)))
		check("in memory", err)
		for _, shards := range []int{1, 3} {
			_, err := BuildKey(writeShardedSet(t, d, t.TempDir(), n/shards), opts, rand.New(rand.NewSource(1)))
			check(fmt.Sprintf("%d shards", shards), err)
		}
	}
}

// applyShardedCSV runs ApplySharded into a CSV buffer.
func applyShardedCSV(t *testing.T, key *transform.Key, ms *dataset.ShardedSource, chunk, workers int) []byte {
	t.Helper()
	outSchema, err := OutputSchema(key, ms.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ApplySharded(key, ms, dataset.NewCSVSink(&buf, outSchema), chunk, workers); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplyShardedByteIdentity pins the apply side: the per-shard
// fan-out with index-ordered merge produces exactly the bytes of the
// single-stream ApplyStream, at any worker count and chunking.
func TestApplyShardedByteIdentity(t *testing.T) {
	d, ms := shardedFixture(t, 250, 60)
	key, err := BuildKey(ms, Options{}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	outSchema, err := OutputSchema(key, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := ApplyStream(noCtx, key, dataset.NewDatasetSource(d), dataset.NewCSVSink(&ref, outSchema), 0, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7, 32} {
		for _, chunk := range []int{0, 17} {
			got := applyShardedCSV(t, key, ms, chunk, workers)
			if !bytes.Equal(got, ref.Bytes()) {
				t.Errorf("workers=%d chunk=%d: sharded apply differs from single-stream", workers, chunk)
			}
		}
	}
}

// TestShardCountInvariance pins the shard axis: the same rows split
// into 1 vs K shards produce identical keys and identical encoded
// bytes.
func TestShardCountInvariance(t *testing.T) {
	d, one := shardedFixture(t, 180, 180) // single shard
	many := writeShardedSet(t, d, t.TempDir(), 23)
	if many.NumShards() < 8 {
		t.Fatalf("fixture produced %d shards, want >= 8", many.NumShards())
	}
	keyOne, err := BuildKey(one, Options{}, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	keyMany, err := BuildKey(many, Options{Workers: 4}, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(keyBytes(t, keyOne), keyBytes(t, keyMany)) {
		t.Fatal("key differs between 1 and K shards")
	}
	if !bytes.Equal(applyShardedCSV(t, keyOne, one, 0, 1), applyShardedCSV(t, keyMany, many, 0, 4)) {
		t.Fatal("encoded bytes differ between 1 and K shards")
	}
}

// errSink fails on the given write call.
type errSink struct {
	writes int
	failAt int
	err    error
}

func (s *errSink) Write(*dataset.Block) error {
	s.writes++
	if s.writes == s.failAt {
		return s.err
	}
	return nil
}

func (s *errSink) Flush() error { return nil }

// TestApplyShardedSinkError checks a sink failure mid-merge surfaces
// as a StageApply error and stops the run.
func TestApplyShardedSinkError(t *testing.T) {
	_, ms := shardedFixture(t, 120, 30)
	key, err := BuildKey(ms, Options{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	sink := &errSink{failAt: 2, err: boom}
	err = ApplySharded(key, ms, sink, 0, 4)
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want the sink error", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageApply {
		t.Fatalf("err %v, want StageApply", err)
	}
}

// TestApplyShardedKeyMismatch checks arity validation up front.
func TestApplyShardedKeyMismatch(t *testing.T) {
	_, ms := shardedFixture(t, 40, 20)
	key := &transform.Key{Attrs: make([]*transform.AttributeKey, 2)} // wrong arity
	err := ApplySharded(key, ms, &errSink{}, 0, 1)
	if !errors.Is(err, transform.ErrKeyMismatch) {
		t.Fatalf("err %v, want ErrKeyMismatch", err)
	}
}

// TestBuildKeyShardedNoAttrs checks the empty-schema guard.
func TestBuildKeyShardedNoAttrs(t *testing.T) {
	// A manifest with no attributes cannot be written (Validate rejects
	// it), so open the source over one in memory.
	src := dataset.NewShardedSource(&dataset.Manifest{Version: 1}, "")
	_, _, err := BuildKeyArtifacts(src, Options{}, rand.New(rand.NewSource(1)))
	if !errors.Is(err, dataset.ErrNoAttributes) {
		t.Fatalf("err %v, want ErrNoAttributes", err)
	}
}

// TestEncodeShardedEndToEnd runs BuildKey and ApplyCSV over shards and
// checks the output against the in-memory relation: the same bytes.
func TestEncodeShardedEndToEnd(t *testing.T) {
	d, ms := shardedFixture(t, 90, 25)
	var out [2]bytes.Buffer
	for i, rel := range []dataset.Relation{d, ms} {
		key, err := BuildKey(rel, Options{}, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ApplyCSV(noCtx, key, rel, &out[i], 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("sharded ApplyCSV differs from in-memory ApplyCSV")
	}
	enc, err := dataset.ReadCSV(&out[1])
	if err != nil {
		t.Fatal(err)
	}
	if enc.NumTuples() != d.NumTuples() {
		t.Fatalf("encoded %d tuples, want %d", enc.NumTuples(), d.NumTuples())
	}
}
