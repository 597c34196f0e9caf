package tree

import (
	"bytes"
	"math/rand"
	"testing"

	"privtree/internal/dataset"
)

// parallelFixture builds a dataset large enough that the root and first
// few levels exceed ParallelMinRows, with mixed numeric and categorical
// attributes and deliberate value ties to stress tie-breaking.
func parallelFixture(t *testing.T) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	d := dataset.New([]string{"a", "b", "c", "cat", "d"}, []string{"neg", "pos"})
	if err := d.MarkCategorical(3, []string{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}
	n := 3 * ParallelMinRows
	for i := 0; i < n; i++ {
		a := float64(rng.Intn(50))  // heavy ties
		b := rng.NormFloat64() * 10 // continuous
		c := float64(i % 7)         // cyclic ties
		cat := float64(rng.Intn(3)) // categorical codes
		e := rng.Float64() * 100    // continuous
		label := 0
		if a+b > 25 || (c > 3 && e > 50) || (cat == 2 && e < 20) {
			label = 1
		}
		if rng.Float64() < 0.05 {
			label = 1 - label // label noise keeps nodes impure deeper down
		}
		if err := d.Append([]float64{a, b, c, cat, e}, label); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// deepFixture builds a relation that grows deep at MinLeaf 1 and
// splits its root four ways on a categorical attribute, with branches
// large enough that their own subtrees are handed to further
// goroutines: spawns nest.
func deepFixture(t *testing.T) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	d := dataset.New([]string{"cat", "a", "b", "c"}, []string{"x", "y", "z"})
	if err := d.MarkCategorical(0, []string{"p", "q", "r", "s"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8*ParallelMinRows; i++ {
		cat := rng.Intn(4)
		a := float64(rng.Intn(100))
		b := rng.NormFloat64()
		c := float64(rng.Intn(12))
		label := cat % 3
		if a > 50 {
			label = (label + 1) % 3
		}
		if b > 0.5 && c > 6 {
			label = (label + 1) % 3
		}
		if rng.Float64() < 0.1 {
			label = rng.Intn(3)
		}
		if err := d.Append([]float64{float64(cat), a, b, c}, label); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestBuildWorkersDeterminism asserts that subtree-parallel growth
// mines exactly the tree the serial build mines: on a mixed fixture
// under every criterion and both orientations at widths 1, 2, 3 and 8,
// and on a deep one whose categorical root split makes subtree spawns
// nest. The deep builds are the test's cost, so they run at width 3
// only, which has two spare goroutines to nest into.
func TestBuildWorkersDeterminism(t *testing.T) {
	for _, fx := range []struct {
		name     string
		d        *dataset.Dataset
		minLeaf  int
		criteria []Criterion
		widths   []int
	}{
		{"mixed", parallelFixture(t), 5, []Criterion{Gini, Entropy, GainRatio}, []int{1, 2, 3, 8}},
		{"deep", deepFixture(t), 1, []Criterion{Gini}, []int{1, 3}},
	} {
		for _, crit := range fx.criteria {
			for _, o := range []Orientation{OrientationCanonical, OrientationRaw} {
				var want []byte
				for _, workers := range fx.widths {
					tr, err := Build(fx.d, Config{MinLeaf: fx.minLeaf, Criterion: crit, Orientation: o, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if fx.name == "deep" && !tr.Root.Multiway {
						t.Fatalf("deep fixture, orient=%v: want a multiway root split", o)
					}
					got := mustMarshal(t, tr)
					if want == nil {
						want = got
					} else if !bytes.Equal(got, want) {
						t.Fatalf("%s crit=%v orient=%v: workers=1 and workers=%d trees differ", fx.name, crit, o, workers)
					}
				}
			}
		}
	}
}
