package tree

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
	"privtree/internal/runs"
)

// shardedTreeFixture builds a numeric dataset with heavy value ties
// (to exercise group boundaries and tie-breaking) round-tripped
// through CSV text so its floats match the sharded set's parse
// exactly, like the real pipeline.
func shardedTreeFixture(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	raw := dataset.New([]string{"a", "b", "c", "d"}, []string{"neg", "pos"})
	for i := 0; i < n; i++ {
		a := float64(rng.Intn(40))
		b := rng.NormFloat64() * 10
		c := float64(i % 9)
		e := rng.Float64() * 100
		label := 0
		if a+b > 22 || (c > 4 && e > 55) {
			label = 1
		}
		if rng.Float64() < 0.06 {
			label = 1 - label
		}
		if err := raw.Append([]float64{a, b, c, e}, label); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writeShardedTree writes d as a sharded set in the given format and
// opens it.
func writeShardedTree(t *testing.T, d *dataset.Dataset, dir, format string, rowsPerShard int) *dataset.ShardedSource {
	t.Helper()
	var sink dataset.ShardSink
	var err error
	prefix := filepath.Join(dir, "set")
	switch format {
	case dataset.FormatCSV:
		sink, err = dataset.NewShardedCSVSink(prefix, rowsPerShard, d.Schema())
	case dataset.FormatBin:
		sink, err = dataset.NewBinaryShardSink(prefix, rowsPerShard, d.Schema())
	default:
		t.Fatalf("format %q", format)
	}
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

// TestBuildShardedMatchesBuild proves the out-of-core induction mines
// byte-identical trees to the in-memory path across criteria,
// orientations, shard formats, shard counts and worker counts.
func TestBuildShardedMatchesBuild(t *testing.T) {
	const n = 3000
	d := shardedTreeFixture(t, n)
	for _, crit := range []Criterion{Gini, Entropy, GainRatio} {
		for _, o := range []Orientation{OrientationCanonical, OrientationRaw} {
			cfg := Config{MinLeaf: 5, Criterion: crit, Orientation: o, Workers: 1}
			want, err := Build(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, err := Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			for _, format := range []string{dataset.FormatCSV, dataset.FormatBin} {
				for _, shards := range []int{1, 3} {
					src := writeShardedTree(t, d, t.TempDir(), format, (n+shards-1)/shards)
					for _, workers := range []int{1, 4} {
						scfg := cfg
						scfg.Workers = workers
						got, err := BuildSharded(src, scfg)
						if err != nil {
							t.Fatal(err)
						}
						got.Config.Workers = want.Config.Workers
						gotBytes, err := Marshal(got)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gotBytes, wantBytes) {
							t.Fatalf("crit=%v orient=%v format=%s shards=%d workers=%d: sharded tree differs from in-memory",
								crit, o, format, shards, workers)
						}
					}
				}
			}
		}
	}
}

// TestBuildShardedDepthAndMinLeaf checks the pruning-relevant stop
// parameters behave identically out-of-core.
func TestBuildShardedDepthAndMinLeaf(t *testing.T) {
	const n = 1200
	d := shardedTreeFixture(t, n)
	src := writeShardedTree(t, d, t.TempDir(), dataset.FormatBin, 400)
	for _, cfg := range []Config{
		{MaxDepth: 2},
		{MaxDepth: 5, MinLeaf: 40},
		{MinLeaf: 200},
	} {
		want, err := Build(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildSharded(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("cfg %+v: sharded tree differs from in-memory", cfg)
		}
	}
}

// TestBuildShardedErrors covers the degenerate inputs.
func TestBuildShardedErrors(t *testing.T) {
	d := dataset.New([]string{"x"}, []string{"a"})
	src := writeShardedTree(t, d, t.TempDir(), dataset.FormatCSV, 10)
	if _, err := BuildSharded(src, Config{}); !errors.Is(err, ErrEmptyData) {
		t.Fatalf("empty set: err = %v, want ErrEmptyData", err)
	}
}

// TestGroupClassesMatchesPresort cross-checks the class-group scan
// inputs against the in-memory presort on a small handmade column.
func TestGroupClassesMatchesPresort(t *testing.T) {
	values := []float64{3, 1, 2, 1, 3, 2, 2}
	labels := []int{1, 0, 1, 1, 1, 1, 0}
	groups := runs.GroupClasses(values, labels, 2)
	wantVals := []float64{1, 2, 3}
	wantCounts := [][]int{{1, 1}, {1, 2}, {0, 2}}
	if len(groups) != len(wantVals) {
		t.Fatalf("got %d groups, want %d", len(groups), len(wantVals))
	}
	for i, g := range groups {
		if g.Value != wantVals[i] {
			t.Errorf("group %d value %v, want %v", i, g.Value, wantVals[i])
		}
		if fmt.Sprint(g.Counts) != fmt.Sprint(wantCounts[i]) {
			t.Errorf("group %d counts %v, want %v", i, g.Counts, wantCounts[i])
		}
	}
	// Splitting across shards and merging reproduces the whole.
	left := runs.GroupClasses(values[:4], labels[:4], 2)
	right := runs.GroupClasses(values[4:], labels[4:], 2)
	merged := runs.MergeClassGroups([][]runs.ClassGroup{left, right})
	if fmt.Sprint(merged) != fmt.Sprint(groups) {
		t.Errorf("merged %v, want %v", merged, groups)
	}
}

// signedZeroFixture builds a relation whose attribute z holds both
// -0.0 and +0.0 and whose labels fall as z rises, so canonical
// orientation flips z: the descending class string starts with class
// 0. Values skip the CSV round trip; binary shards keep every bit.
func signedZeroFixture(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	negZero := math.Copysign(0, -1)
	zs := []float64{-3, -2, -1, negZero, 0, 1, 2, 3}
	rng := rand.New(rand.NewSource(8))
	d := dataset.New([]string{"z", "w"}, []string{"lo", "hi"})
	// Shard sinks number classes in order of first appearance, so the
	// first row carries class 0.
	if err := d.Append([]float64{3, 0}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		z := zs[rng.Intn(len(zs))]
		w := float64(rng.Intn(5))
		label := 0
		if z <= 0 {
			label = 1
		}
		if rng.Float64() < 0.05 {
			label = 1 - label
		}
		if err := d.Append([]float64{z, w}, label); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestBuildShardedSignedZeros pins byte-identity with Build on a
// column mixing -0.0 and +0.0 that canonical orientation negates: the
// hash grouping folds both zeros into one group, exactly as Build's
// presort treats them as one value.
func TestBuildShardedSignedZeros(t *testing.T) {
	const n = 900
	d := signedZeroFixture(t, n)
	if !runs.DescendingClassStringLess(runs.GroupClasses(d.Cols[0], d.Labels, 2)) {
		t.Fatal("fixture: canonical orientation must flip z")
	}
	// MaxDepth bounds the tree should the zeros ever split apart: a
	// threshold between -0.0 and +0.0 routes every row left.
	cfg := Config{MinLeaf: 5, MaxDepth: 12, Workers: 1}
	root, err := Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		src := writeShardedTree(t, d, t.TempDir(), dataset.FormatBin, (n+shards-1)/shards)
		for _, workers := range []int{1, 4} {
			scfg := cfg
			scfg.Workers = workers
			got, err := BuildSharded(src, scfg)
			if err != nil {
				t.Fatal(err)
			}
			got.Config.Workers = 1
			gotBytes, err := Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, want) {
				t.Fatalf("shards=%d workers=%d: sharded tree differs from in-memory", shards, workers)
			}
		}
	}
}

// TestBuildShardedNaN pins byte-identity with Build on a column mixing
// NaNs of both signs and two payloads with -0.0 and +0.0, in a column
// canonical orientation negates. Both builders group values by
// dataset.OrderedBits key — one group per NaN bit pattern, sorted past
// the infinities by sign — and route NaN to the high side. NaN confined
// to one shard is the case the per-level merge must keep apart: its
// groups meet the other shards' groups of ordinary values there.
func TestBuildShardedNaN(t *testing.T) {
	const n = 900
	nans := []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff8000000000001)}
	for _, c := range []struct {
		name   string
		attr   int
		lo, hi int // every 7th row of [lo, hi) holds NaN
		nans   []float64
	}{
		{"every shard, three patterns", 0, 1, n, nans},
		{"positive NaN on z in shard 1", 0, 300, 600, nans[:1]},
		{"negative NaN on w in shard 2", 1, 600, 900, nans[1:2]},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := signedZeroFixture(t, n)
			for i := c.lo; i < c.hi; i += 7 {
				d.Cols[c.attr][i] = c.nans[(i/7)%len(c.nans)]
			}
			cfg := Config{MinLeaf: 5}
			var want []byte
			for _, workers := range []int{1, 4} {
				cfg.Workers = workers
				tr, err := Build(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := mustMarshal(t, tr)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: in-memory tree differs from workers=1", workers)
				}
			}
			for _, shards := range []int{1, 3} {
				src := writeShardedTree(t, d, t.TempDir(), dataset.FormatBin, (n+shards-1)/shards)
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					tr, err := BuildSharded(src, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(mustMarshal(t, tr), want) {
						t.Fatalf("shards=%d workers=%d: sharded tree differs from in-memory", shards, workers)
					}
				}
			}
		})
	}
}
