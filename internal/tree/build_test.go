package tree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/pipeline"
	"privtree/internal/synth"
)

// mustMarshal returns the tree's wire bytes, the form every
// byte-identity check compares.
func mustMarshal(t testing.TB, tr *Tree) []byte {
	t.Helper()
	b, err := Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// treeBytes is the tree's wire bytes, or — when a threshold is
// infinite, which JSON cannot carry — a dump of every node with its
// threshold's bits.
func treeBytes(tr *Tree) []byte {
	if b, err := Marshal(tr); err == nil {
		return b
	}
	var b bytes.Buffer
	var dump func(n *Node)
	dump = func(n *Node) {
		fmt.Fprintf(&b, "(%t %d %v %d %x %v", n.Leaf, n.Class, n.Counts, n.Attr, math.Float64bits(n.Threshold), n.Cats)
		if !n.Leaf {
			for _, c := range children(n) {
				dump(c)
			}
		}
		b.WriteByte(')')
	}
	dump(tr.Root)
	return b.Bytes()
}

// checkMatchesReference mines d with Build at each worker count and
// with buildReference, and fails unless every tree is byte-identical.
func checkMatchesReference(t testing.TB, d *dataset.Dataset, cfg Config, workers ...int) {
	t.Helper()
	ref, err := buildReference(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := treeBytes(ref)
	for _, w := range workers {
		c := cfg
		c.Workers = w
		got, err := Build(d, c)
		if err != nil {
			t.Fatal(err)
		}
		if b := treeBytes(got); !bytes.Equal(b, want) {
			t.Fatalf("cfg %+v: Build differs from the reference builder:\n got %s\nwant %s", c, b, want)
		}
	}
}

// covertypeRows draws n covertype-like rows at seed 7.
func covertypeRows(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	d, err := synth.Covertype(rand.New(rand.NewSource(7)), n)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBuildMatchesReference pins the presorted-list builder to the old
// comparison-sorted one on 20k covertype rows, deep and shallow, under
// every criterion and both orientations.
func TestBuildMatchesReference(t *testing.T) {
	d := covertypeRows(t, 20_000)
	for _, minLeaf := range []int{1, 5} {
		for _, crit := range []Criterion{Gini, Entropy, GainRatio} {
			for _, o := range []Orientation{OrientationCanonical, OrientationRaw} {
				checkMatchesReference(t, d, Config{MinLeaf: minLeaf, Criterion: crit, Orientation: o}, 1, 2)
			}
		}
	}
}

// TestBuildMatchesReferenceEncoded mines 100k covertype rows encoded
// the way the custodian encodes them before handing them to a miner
// (MaxMP, w 20, minimum piece width 5), at MinLeaf 5 and two workers.
func TestBuildMatchesReferenceEncoded(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row reference build")
	}
	d := covertypeRows(t, 100_000)
	opts := pipeline.Options{Strategy: pipeline.StrategyMaxMP, Breakpoints: 20, MinPieceWidth: 5, Workers: 2}
	key, err := pipeline.BuildKey(d, opts, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := pipeline.Apply(d, key, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesReference(t, enc, Config{MinLeaf: 5}, 2)
}

// TestBuildAllocs is the allocation gate for the attribute-list
// builder: beyond the presort, growing a node allocates only what the
// node keeps. A MinLeaf-1 build of 20k covertype rows (thousands of
// nodes) may allocate at most 1.5× the bytes of a depth-4 build of the
// same rows (a few dozen nodes), and at most 20 objects per node.
func TestBuildAllocs(t *testing.T) {
	d := covertypeRows(t, 20_000)
	measure := func(cfg Config) (bytes, objects uint64, nodes int) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr, err := Build(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, tr.NumNodes()
	}
	deepBytes, deepObjects, deepNodes := measure(Config{MinLeaf: 1, Workers: 2})
	shallowBytes, _, _ := measure(Config{MinLeaf: 1, MaxDepth: 4, Workers: 2})
	t.Logf("MinLeaf 1: %d nodes, %d B in %d objects; MaxDepth 4: %d B", deepNodes, deepBytes, deepObjects, shallowBytes)
	if deepBytes > shallowBytes*3/2 {
		t.Errorf("MinLeaf-1 build allocated %d B, more than 1.5× the depth-4 build's %d B", deepBytes, shallowBytes)
	}
	if perNode := float64(deepObjects) / float64(deepNodes); perNode > 20 {
		t.Errorf("MinLeaf-1 build allocated %.1f objects per node, want at most 20", perNode)
	}
}

// fuzzAlphabet is the value alphabet FuzzBuild draws from: small, so
// ties are heavy, and holding signed zeros, infinities, neighbouring
// floats and values whose midpoint overflows.
var fuzzAlphabet = []float64{
	math.Inf(-1), -math.MaxFloat64, -2.5, -1, math.Copysign(0, -1), 0, 0.5,
	1, math.Nextafter(1, 2), 2, 3, 1e308, math.MaxFloat64, math.Inf(1),
}

// fuzzRelation decodes fuzz input into a NaN-free relation and a
// configuration. Five header bytes choose the attribute count (1–4),
// the class count (2–4), the criterion, orientation, full scan and
// whether attribute 0 is categorical, MinLeaf (1–8) and MaxDepth
// (1–6, or 0 for unbounded); every further attrs+1 bytes are one row
// (values indexing fuzzAlphabet, then the label), up to 200 rows.
func fuzzRelation(data []byte) (*dataset.Dataset, Config, bool) {
	if len(data) < 5 {
		return nil, Config{}, false
	}
	h, data := data[:5], data[5:]
	attrs := 1 + int(h[0]%4)
	classes := 2 + int(h[1]%3)
	cfg := Config{
		Criterion:     Criterion(h[2] % 3),
		Orientation:   Orientation(h[2] >> 2 & 1),
		FullSplitScan: h[2]>>3&1 == 1,
		MinLeaf:       1 + int(h[3]%8),
		MaxDepth:      int(h[4] % 7),
	}
	categorical := h[2]>>4&1 == 1
	attrNames := make([]string, attrs)
	for a := range attrNames {
		attrNames[a] = fmt.Sprintf("a%d", a)
	}
	classNames := []string{"c0", "c1", "c2", "c3"}[:classes]
	d := dataset.New(attrNames, classNames)
	if categorical {
		if err := d.MarkCategorical(0, []string{"p", "q", "r"}); err != nil {
			panic(err)
		}
	}
	row := make([]float64, attrs)
	for len(data) > attrs && d.NumTuples() < 200 {
		for a := range row {
			if categorical && a == 0 {
				row[a] = float64(data[a] % 3)
			} else {
				row[a] = fuzzAlphabet[int(data[a])%len(fuzzAlphabet)]
			}
		}
		if err := d.Append(row, int(data[attrs])%classes); err != nil {
			panic(err)
		}
		data = data[attrs+1:]
	}
	return d, cfg, d.NumTuples() > 0
}

// TestBuildNonSeparatingMidpoints mines two-row relations whose
// midpoint does not separate the rows — adjacent floats, whose
// midpoint rounds onto the upper value; values whose sum overflows;
// infinities; a negative zero below +Inf, whose threshold is the zero
// itself — with the upper row first or last, so canonical orientation
// negates the attribute in one of them. Every builder must split once,
// at depth 1, on a threshold that sends each row to its own leaf, and
// the builders must agree. The first row carries class 0 because shard
// sinks number classes in order of first appearance.
func TestBuildNonSeparatingMidpoints(t *testing.T) {
	for _, pair := range [][2]float64{
		{1.0000000000000002, 1.0000000000000004},
		{1e308, math.MaxFloat64},
		{1, math.Inf(1)},
		{math.Inf(-1), math.Inf(1)},
		{math.Copysign(0, -1), math.Inf(1)},
	} {
		for _, rows := range [][2]float64{pair, {pair[1], pair[0]}} {
			d := dataset.New([]string{"x"}, []string{"a", "b"})
			for label, v := range rows {
				if err := d.Append([]float64{v}, label); err != nil {
					t.Fatal(err)
				}
			}
			var want []byte
			var wantBits uint64
			check := func(builder string, tr *Tree, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("rows %v: %s: %v", rows, builder, err)
				}
				if tr.Depth() != 1 || tr.NumLeaves() != 2 {
					t.Fatalf("rows %v: %s: depth %d with %d leaves, want one split", rows, builder, tr.Depth(), tr.NumLeaves())
				}
				for label, v := range rows {
					if got := tr.Predict([]float64{v}); got != label {
						t.Fatalf("rows %v: %s: threshold %v routes %v to class %d, want %d",
							rows, builder, tr.Root.Threshold, v, got, label)
					}
				}
				// The wire form omits a zero threshold, so its sign is
				// compared by bits.
				if b, bits := treeBytes(tr), math.Float64bits(tr.Root.Threshold); want == nil {
					want, wantBits = b, bits
				} else if !bytes.Equal(b, want) || bits != wantBits {
					t.Fatalf("rows %v: %s differs from Build:\n got %s threshold %#x\nwant %s threshold %#x", rows, builder, b, bits, want, wantBits)
				}
			}
			for _, w := range []int{1, 2} {
				tr, err := Build(d, Config{Workers: w})
				check(fmt.Sprintf("Build workers=%d", w), tr, err)
			}
			tr, err := BuildSharded(writeShardedTree(t, d, t.TempDir(), dataset.FormatBin, 2), Config{})
			check("BuildSharded", tr, err)
			ref, err := buildReference(d, Config{})
			check("buildReference", ref, err)
		}
	}
}

// FuzzBuild checks Build against the reference builder on small
// relations with heavy ties, at one and three workers.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 7, 0, 5, 1, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, cfg, ok := fuzzRelation(data)
		if !ok {
			return
		}
		checkMatchesReference(t, d, cfg, 1, 3)
	})
}
