package tree

import (
	"errors"
	"math"
	"strings"
	"testing"

	"privtree/internal/dataset"
)

// figure1 builds the paper's Figure 1(a) training data.
func figure1(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.New([]string{"age", "salary"}, []string{"High", "Low"})
	rows := []struct {
		age, salary float64
		label       int
	}{
		{17, 30000, 0}, {20, 42000, 0}, {23, 50000, 0},
		{32, 35000, 1}, {43, 45000, 0}, {68, 20000, 1},
	}
	for _, r := range rows {
		if err := d.Append([]float64{r.age, r.salary}, r.label); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestParseCriterion pins the one name table of Criterion: the two
// names the CLI and privtreed accept, and the error text of every
// other one, gain ratio included.
func TestParseCriterion(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Criterion
		err  string
	}{
		{"gini", Gini, ""},
		{"entropy", Entropy, ""},
		{"", 0, `criterion "" (gini, entropy): tree: unknown split criterion`},
		{"gainratio", 0, `criterion "gainratio" (gini, entropy): tree: unknown split criterion`},
		{"Gini", 0, `criterion "Gini" (gini, entropy): tree: unknown split criterion`},
	} {
		got, err := ParseCriterion(tc.name)
		if tc.err == "" {
			if err != nil || got != tc.want {
				t.Errorf("ParseCriterion(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
			}
			continue
		}
		if err == nil || err.Error() != tc.err || !errors.Is(err, ErrUnknownCriterion) {
			t.Errorf("ParseCriterion(%q) error %v; want %q wrapping ErrUnknownCriterion", tc.name, err, tc.err)
		}
	}
}

func TestImpurity(t *testing.T) {
	if got := Gini.Impurity([]int{2, 2}, 4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("gini(2,2) = %v, want 0.5", got)
	}
	if got := Gini.Impurity([]int{4, 0}, 4); got != 0 {
		t.Errorf("gini(pure) = %v, want 0", got)
	}
	if got := Entropy.Impurity([]int{2, 2}, 4); math.Abs(got-1) > 1e-12 {
		t.Errorf("entropy(2,2) = %v, want 1", got)
	}
	if got := Entropy.Impurity([]int{4, 0}, 4); got != 0 {
		t.Errorf("entropy(pure) = %v, want 0", got)
	}
	if got := Gini.Impurity([]int{0, 0}, 0); got != 0 {
		t.Errorf("impurity of empty = %v", got)
	}
	if Gini.String() != "gini" || Entropy.String() != "entropy" {
		t.Error("criterion names wrong")
	}
	if Criterion(9).String() == "" {
		t.Error("unknown criterion should render")
	}
}

func TestBuildFigure1Gini(t *testing.T) {
	d := figure1(t)
	tr, err := Build(d, Config{Criterion: Gini})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root
	// Paper Figure 1(d): root splits age at (23+32)/2 = 27.5.
	if root.Leaf || root.Attr != 0 || math.Abs(root.Threshold-27.5) > 1e-9 {
		t.Fatalf("root = %+v, want age <= 27.5", root)
	}
	if !root.Left.Leaf || root.Left.Class != 0 {
		t.Errorf("left child should be leaf High: %+v", root.Left)
	}
	right := root.Right
	if right.Leaf || right.Attr != 1 || math.Abs(right.Threshold-40000) > 1e-9 {
		t.Fatalf("right = %+v, want salary <= 40000", right)
	}
	if !right.Left.Leaf || right.Left.Class != 1 {
		t.Errorf("salary-low leaf should be Low: %+v", right.Left)
	}
	if !right.Right.Leaf || right.Right.Class != 0 {
		t.Errorf("salary-high leaf should be High: %+v", right.Right)
	}
	if acc := tr.Accuracy(d); acc != 1 {
		t.Errorf("training accuracy = %v, want 1", acc)
	}
	if tr.NumNodes() != 5 || tr.NumLeaves() != 3 || tr.Depth() != 2 {
		t.Errorf("shape = %d nodes, %d leaves, depth %d", tr.NumNodes(), tr.NumLeaves(), tr.Depth())
	}
}

func TestBuildFigure1Entropy(t *testing.T) {
	d := figure1(t)
	tr, err := Build(d, Config{Criterion: Entropy})
	if err != nil {
		t.Fatal(err)
	}
	// Entropy picks the same splits on this data.
	if tr.Root.Attr != 0 || math.Abs(tr.Root.Threshold-27.5) > 1e-9 {
		t.Errorf("entropy root = %+v", tr.Root)
	}
	if acc := tr.Accuracy(d); acc != 1 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestBuildErrors(t *testing.T) {
	empty := dataset.New([]string{"a"}, []string{"x"})
	if _, err := Build(empty, Config{}); err == nil {
		t.Error("expected error for empty data")
	}
	noAttrs := dataset.New(nil, []string{"x"})
	noAttrs.Labels = []int{0}
	if _, err := Build(noAttrs, Config{}); err == nil {
		t.Error("expected error for no attributes")
	}
	bad := figure1(t)
	bad.Labels[0] = 99
	if _, err := Build(bad, Config{}); err == nil {
		t.Error("expected validation error")
	}
}

func TestBuildMaxDepth(t *testing.T) {
	d := figure1(t)
	tr, err := Build(d, Config{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 1 {
		t.Errorf("depth = %d, want 1", tr.Depth())
	}
	// Depth-limited leaves predict the majority class.
	right := tr.Root.Right
	if !right.Leaf {
		t.Fatal("right child should be a leaf at depth 1")
	}
	if right.Class != 1 { // 2 Low vs 1 High
		t.Errorf("majority class = %d, want 1", right.Class)
	}
}

func TestBuildMinLeaf(t *testing.T) {
	d := figure1(t)
	tr, err := Build(d, Config{MinLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 3 on 6 tuples, only the balanced root split (3|3) is
	// allowed; its children cannot split further (3 < 2*3).
	if tr.Depth() != 1 {
		t.Errorf("depth = %d, want 1: %s", tr.Depth(), tr)
	}
	var checkLeafSizes func(n *Node)
	checkLeafSizes = func(n *Node) {
		if n == nil {
			return
		}
		if n.Leaf {
			total := 0
			for _, c := range n.Counts {
				total += c
			}
			if total < 3 {
				t.Errorf("leaf with %d < 3 tuples", total)
			}
			return
		}
		checkLeafSizes(n.Left)
		checkLeafSizes(n.Right)
	}
	checkLeafSizes(tr.Root)
}

func TestBuildSingleClass(t *testing.T) {
	d := dataset.New([]string{"a"}, []string{"only"})
	for i := 0; i < 5; i++ {
		if err := d.Append([]float64{float64(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Build(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.Leaf || tr.Root.Class != 0 {
		t.Errorf("single-class tree should be a leaf: %+v", tr.Root)
	}
}

func TestBuildConstantAttribute(t *testing.T) {
	// An attribute with one distinct value offers no split.
	d := dataset.New([]string{"c"}, []string{"x", "y"})
	for i := 0; i < 6; i++ {
		if err := d.Append([]float64{7}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Build(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.Leaf {
		t.Error("unsplittable data should yield a leaf")
	}
}

func TestPredictAndClone(t *testing.T) {
	d := figure1(t)
	tr, err := Build(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Predict([]float64{25, 10000}) != 0 {
		t.Error("young -> High expected")
	}
	if tr.Predict([]float64{50, 30000}) != 1 {
		t.Error("older low salary -> Low expected")
	}
	c := tr.Clone()
	if !Equal(tr, c, 0) {
		t.Error("clone should be structurally equal")
	}
	c.Root.Threshold = 99
	if Equal(tr, c, 0) {
		t.Error("mutating clone must not affect original")
	}
}

func TestEqualAndEquivalentOn(t *testing.T) {
	d := figure1(t)
	tr, err := Build(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	other := tr.Clone()
	if !EquivalentOn(tr, other, d) {
		t.Error("identical trees must be equivalent")
	}
	// Move the root threshold within the same active-domain gap
	// (23, 32): still equivalent, no tuple changes side.
	other.Root.Threshold = 30
	if Equal(tr, other, 1e-9) {
		t.Error("thresholds differ, Equal should fail")
	}
	if !EquivalentOn(tr, other, d) {
		t.Error("threshold within the same gap must remain equivalent")
	}
	// Move it across a data value: no longer equivalent.
	other.Root.Threshold = 35
	if EquivalentOn(tr, other, d) {
		t.Error("threshold crossing a data value must break equivalence")
	}
	// Different split attribute.
	other = tr.Clone()
	other.Root.Attr = 1
	if EquivalentOn(tr, other, d) {
		t.Error("different attribute must break equivalence")
	}
	// Leaf/internal mismatch.
	other = tr.Clone()
	other.Root.Right = &Node{Leaf: true, Class: 1, Counts: []int{1, 2}}
	if EquivalentOn(tr, other, d) || Equal(tr, other, 1e-9) {
		t.Error("shape change must break both comparisons")
	}
}

func TestAgreement(t *testing.T) {
	d := figure1(t)
	tr, err := Build(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Agreement(tr, tr, d); got != 1 {
		t.Errorf("self agreement = %v", got)
	}
	stub := &Tree{Root: &Node{Leaf: true, Class: 0}, AttrNames: d.AttrNames, ClassNames: d.ClassNames}
	// The constant-High tree agrees exactly on the 4 High tuples.
	if got := Agreement(tr, stub, d); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("agreement = %v, want 2/3", got)
	}
	if Agreement(tr, stub, dataset.New(d.AttrNames, d.ClassNames)) != 0 {
		t.Error("agreement on empty data should be 0")
	}
}

func TestPaths(t *testing.T) {
	d := figure1(t)
	tr, err := Build(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	paths := tr.Paths()
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(paths))
	}
	// First path: age <= 27.5 -> High.
	p0 := paths[0]
	if p0.Len() != 1 || p0.Conds[0].Attr != 0 || p0.Conds[0].Op != LE || p0.Class != 0 {
		t.Errorf("path 0 = %+v", p0)
	}
	// Deepest paths test age then salary.
	p1 := paths[1]
	if p1.Len() != 2 || p1.Conds[0].Op != GT || p1.Conds[1].Attr != 1 {
		t.Errorf("path 1 = %+v", p1)
	}
	attrs := p1.Attrs()
	if len(attrs) != 2 || attrs[0] != 0 || attrs[1] != 1 {
		t.Errorf("path attrs = %v", attrs)
	}
	s := p1.Format(tr.AttrNames, tr.ClassNames)
	if !strings.Contains(s, "age > 27.5") || !strings.Contains(s, "salary <= 40000") {
		t.Errorf("formatted path = %q", s)
	}
	hist := PathLengthHistogram(paths)
	if hist[1] != 1 || hist[2] != 2 {
		t.Errorf("histogram = %v", hist)
	}
	if len(PathLengthHistogram(nil)) != 1 {
		t.Error("empty histogram should have one bucket")
	}
}

func TestStringRendering(t *testing.T) {
	d := figure1(t)
	tr, err := Build(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.String()
	for _, want := range []string{"age <= 27.5", "salary <= 40000", "High", "Low"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestOpString(t *testing.T) {
	if LE.String() != "<=" || GT.String() != ">" {
		t.Error("op strings wrong")
	}
}

func TestFullSplitScanSameTree(t *testing.T) {
	// Lemma 2 ablation: evaluating every boundary yields the identical
	// tree as evaluating only label-run boundaries.
	d := figure1(t)
	fast, err := Build(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(d, Config{FullSplitScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(fast, full, 0) {
		t.Errorf("full scan built a different tree:\n%s\nvs\n%s", fast, full)
	}
}
