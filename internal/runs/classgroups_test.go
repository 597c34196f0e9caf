package runs

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"privtree/internal/dataset"
)

func TestGroupClassesBasics(t *testing.T) {
	if g := GroupClasses(nil, nil, 2); g != nil {
		t.Fatalf("empty projection: got %v, want nil", g)
	}
	values := []float64{2, 1, 2, 1, 1, 3}
	labels := []int{0, 1, 1, 1, 0, 0}
	got := GroupClasses(values, labels, 2)
	want := []ClassGroup{
		{Value: 1, Counts: []int{1, 2}},
		{Value: 2, Counts: []int{1, 1}},
		{Value: 3, Counts: []int{1, 0}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got[0].Rows() != 3 || got[2].Rows() != 1 {
		t.Fatalf("Rows: got %d/%d, want 3/1", got[0].Rows(), got[2].Rows())
	}
}

// TestMergeClassGroupsOracle checks the merge against GroupClasses over
// the concatenation, on random projections split into random shards —
// including empty shards.
func TestMergeClassGroupsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		values := make([]float64, n)
		labels := make([]int, n)
		for i := range values {
			values[i] = float64(rng.Intn(12)) // heavy ties
			labels[i] = rng.Intn(3)
		}
		want := GroupClasses(values, labels, 3)
		var shards [][]ClassGroup
		for lo := 0; lo <= n; {
			hi := lo + rng.Intn(60)
			if hi > n {
				hi = n
			}
			shards = append(shards, GroupClasses(values[lo:hi], labels[lo:hi], 3))
			if hi == n {
				break
			}
			lo = hi
		}
		got := MergeClassGroups(shards)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged %v, want %v", trial, got, want)
		}
	}
}

// TestMergeGroupsEmptyShards checks MergeClassGroups on no shards,
// empty shards and a single non-empty shard, whose groups come back in
// a fresh slice.
func TestMergeGroupsEmptyShards(t *testing.T) {
	if got := MergeClassGroups(nil); len(got) != 0 {
		t.Fatalf("merge of no shards: %v", got)
	}
	if got := MergeClassGroups([][]ClassGroup{{}, {}}); len(got) != 0 {
		t.Fatalf("merge of empty shards: %v", got)
	}
	one := []ClassGroup{{Value: 1, Counts: []int{0, 2}}}
	got := MergeClassGroups([][]ClassGroup{{}, one, {}})
	if !reflect.DeepEqual(got, one) {
		t.Fatalf("merge of one shard: %v, want %v", got, one)
	}
	got[0].Value = 99
	if one[0].Value != 1 {
		t.Fatal("MergeClassGroups aliased its input slice")
	}
}

// TestMergeGroupsCombine pins what the sharded profile derives from a
// merge on a hand-built case: counts sum, Label is the minimum label
// over both shards, and Mono requires both sides monochromatic with
// equal labels.
func TestMergeGroupsCombine(t *testing.T) {
	a := []ClassGroup{
		{Value: 1, Counts: []int{0, 2}},
		{Value: 3, Counts: []int{1, 0}},
	}
	b := []ClassGroup{
		{Value: 1, Counts: []int{3, 0}},
		{Value: 2, Counts: []int{2, 2}},
		{Value: 3, Counts: []int{4, 0}},
	}
	got := ValueGroupsOf(MergeClassGroups([][]ClassGroup{a, b}))
	want := []ValueGroup{
		{Value: 1, Count: 5, Mono: false, Label: 0}, // labels differ → mixed; min label
		{Value: 2, Count: 4, Mono: false, Label: 0}, // b only
		{Value: 3, Count: 5, Mono: true, Label: 0},  // both mono, same label
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestMergeClassGroupsNaN pins the merge order to Group's: a NaN group
// is one key among the others, not a value equal to every value, so
// merging shards that hold NaN keeps every group apart.
func TestMergeClassGroupsNaN(t *testing.T) {
	nan, negNaN := math.NaN(), math.Copysign(math.NaN(), -1)
	for _, shards := range [][][]float64{
		{{1, nan}, {2}},
		{{2}, {1, nan}},
		{{negNaN, 3}, {-1, nan, 3}, {math.Inf(-1)}},
	} {
		var all []float64
		var groups [][]ClassGroup
		for _, vs := range shards {
			all = append(all, vs...)
			groups = append(groups, GroupClasses(vs, make([]int, len(vs)), 1))
		}
		want := GroupClasses(all, make([]int, len(all)), 1)
		if got := MergeClassGroups(groups); !sameGroupBits(got, want) {
			t.Fatalf("shards %v: merged %v, want %v", shards, got, want)
		}
	}
}

// sameGroupBits reports whether two group slices agree element for
// element with values compared bit for bit, NaN payloads included.
func sameGroupBits(got, want []ClassGroup) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) || !reflect.DeepEqual(got[i].Counts, want[i].Counts) {
			return false
		}
	}
	return true
}

// TestFlipClassGroups checks the in-place flip equals grouping the
// negated projection.
func TestFlipClassGroups(t *testing.T) {
	values := []float64{1, 2, 2, 5}
	labels := []int{0, 1, 0, 1}
	groups := GroupClasses(values, labels, 2)
	FlipClassGroups(groups)
	neg := make([]float64, len(values))
	for i, v := range values {
		neg[i] = -v
	}
	want := GroupClasses(neg, labels, 2)
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("flipped %v, want %v", groups, want)
	}
	FlipClassGroups(nil) // no-op on empty
}

// referenceClassStrings is the sort-based oracle for the class
// strings: sort (value, label) pairs, read the labels off ascending,
// and read the blocks of equal values back to front for the descending
// string, each block keeping its ascending labels.
func referenceClassStrings(values []float64, labels []int) (asc, desc []int) {
	order := make([]int, len(values))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		vx, vy := values[order[x]], values[order[y]]
		if vx != vy {
			return vx < vy
		}
		return labels[order[x]] < labels[order[y]]
	})
	for _, i := range order {
		asc = append(asc, labels[i])
	}
	for end := len(order); end > 0; {
		start := end - 1
		for start > 0 && values[order[start-1]] == values[order[end-1]] {
			start--
		}
		desc = append(desc, asc[start:end]...)
		end = start
	}
	return asc, desc
}

// TestDescendingClassStringLessOracle checks ClassStringOf,
// ClassStringDescendingOf and the RLE comparison against the
// sort-based class strings of random single-attribute relations.
func TestDescendingClassStringLessOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		d := dataset.New([]string{"x"}, []string{"a", "b", "c"})
		values := make([]float64, n)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			values[i] = float64(rng.Intn(6))
			labels[i] = rng.Intn(3)
			if err := d.Append([]float64{values[i]}, labels[i]); err != nil {
				t.Fatal(err)
			}
		}
		asc, desc := referenceClassStrings(values, labels)
		if got := ClassStringOf(d, 0); !EqualStrings(got, asc) {
			t.Fatalf("trial %d: ClassStringOf = %v, want %v", trial, got, asc)
		}
		if got := ClassStringDescendingOf(d, 0); !EqualStrings(got, desc) {
			t.Fatalf("trial %d: ClassStringDescendingOf = %v, want %v", trial, got, desc)
		}
		want := lexLessInts(desc, asc)
		groups := GroupClasses(values, labels, 3)
		if got := DescendingClassStringLess(groups); got != want {
			t.Fatalf("trial %d: DescendingClassStringLess = %v, want %v\nasc %v\ndesc %v",
				trial, got, want, asc, desc)
		}
	}
}

// lexLessInts is strict lexicographic comparison of equal-length label
// strings.
func lexLessInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestDescendingClassStringLessEdge pins the boundary cases: empty
// groups and a palindromic string (equal either way).
func TestDescendingClassStringLessEdge(t *testing.T) {
	if DescendingClassStringLess(nil) {
		t.Fatal("empty groups: want false")
	}
	// One value, mixed labels: asc == desc exactly.
	groups := GroupClasses([]float64{4, 4, 4}, []int{1, 0, 1}, 2)
	if DescendingClassStringLess(groups) {
		t.Fatal("single-value groups: strings are equal, want false")
	}
}

// referenceGroupClasses is the sort-based oracle for GroupClasses: sort
// the row indices by value, then fold runs of == values into one
// histogram each.
func referenceGroupClasses(values []float64, labels []int, nClasses int) []ClassGroup {
	if len(values) == 0 {
		return nil
	}
	order := make([]int, len(values))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return values[order[x]] < values[order[y]] })
	var out []ClassGroup
	for _, i := range order {
		if n := len(out); n > 0 && out[n-1].Value == values[i] {
			out[n-1].Counts[labels[i]]++
			continue
		}
		c := make([]int, nClasses)
		c[labels[i]]++
		out = append(out, ClassGroup{Value: values[i], Counts: c})
	}
	return out
}

// sameGroups reports whether two group slices agree element for
// element: values by ==, so the oracle's -0.0 matches a +0.0 group.
func sameGroups(got, want []ClassGroup) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Value != want[i].Value || !reflect.DeepEqual(got[i].Counts, want[i].Counts) {
			return false
		}
	}
	return true
}

// randomProjection draws n rows whose values come from `distinct`
// candidates (all distinct when distinct <= 0), with labels in
// [0, nClasses).
func randomProjection(rng *rand.Rand, n, distinct, nClasses int) ([]float64, []int) {
	values := make([]float64, n)
	labels := make([]int, n)
	for i := range values {
		if distinct > 0 {
			values[i] = float64(rng.Intn(distinct)) * 0.25
		} else {
			values[i] = rng.NormFloat64()
		}
		labels[i] = rng.Intn(nClasses)
	}
	return values, labels
}

// TestGroupClassesOracle pins the hash grouping to the sort-based
// reference on the edge shapes: signed zeros, all-equal, all-distinct,
// a single row, a single class, and distinct counts on both sides of
// every table-growth boundary.
func TestGroupClassesOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name     string
		values   []float64
		labels   []int
		nClasses int
	}{
		{"signed zeros", []float64{0, negZero, 1, negZero, -1, 0}, []int{0, 1, 1, 0, 1, 1}, 2},
		{"only negative zeros", []float64{negZero, negZero}, []int{1, 0}, 2},
		{"all equal", []float64{7, 7, 7, 7}, []int{2, 0, 2, 1}, 3},
		{"single row", []float64{-3.5}, []int{0}, 1},
		{"one class", []float64{3, 1, 2, 1, 3}, []int{0, 0, 0, 0, 0}, 1},
		{"infinities", []float64{math.Inf(1), -1, math.Inf(-1), math.Inf(1)}, []int{1, 0, 0, 1}, 2},
		{"extremes", []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}, []int{0, 1, 0, 1}, 2},
	}
	rng := rand.New(rand.NewSource(3))
	allDistinct, l := randomProjection(rng, 5000, 0, 4)
	cases = append(cases, struct {
		name     string
		values   []float64
		labels   []int
		nClasses int
	}{"all distinct", allDistinct, l, 4})
	// The table starts at 2·min(rows, initialGroups) slots rounded up to
	// a power of two and doubles when more than half full.
	for _, d := range []int{3, 4, 5, 8, 9, initialGroups - 1, initialGroups, initialGroups + 1, 2 * initialGroups, 2*initialGroups + 1} {
		for _, n := range []int{d, 3 * d} {
			v := make([]float64, n)
			lab := make([]int, n)
			for i := range v {
				v[i] = float64(i%d) - float64(d)/2
				lab[i] = rng.Intn(3)
			}
			cases = append(cases, struct {
				name     string
				values   []float64
				labels   []int
				nClasses int
			}{fmt.Sprintf("%d distinct in %d rows", d, n), v, lab, 3})
		}
	}
	var s ClassScratch
	for _, c := range cases {
		want := referenceGroupClasses(c.values, c.labels, c.nClasses)
		if got := GroupClasses(c.values, c.labels, c.nClasses); !sameGroups(got, want) {
			t.Fatalf("%s: GroupClasses = %v, want %v", c.name, got, want)
		}
		if got := s.Group(c.values, c.labels, c.nClasses); !sameGroups(got, want) {
			t.Fatalf("%s: reused scratch = %v, want %v", c.name, got, want)
		}
	}
}

// TestGroupClassesFoldsNegativeZero checks the signed zeros form one
// group whose value is +0.0, whatever order they arrive in.
func TestGroupClassesFoldsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, values := range [][]float64{{negZero, 0}, {0, negZero}, {negZero}} {
		got := GroupClasses(values, make([]int, len(values)), 1)
		if len(got) != 1 || got[0].Rows() != len(values) || math.Signbit(got[0].Value) {
			t.Fatalf("%v: got %v, want one +0.0 group of %d", values, got, len(values))
		}
	}
}

// TestClassScratchReuse runs one scratch through calls of different
// sizes and class counts, large then small then large, and checks each
// against a fresh oracle: no count, key or table slot may leak from one
// call into the next, and no output may alias the scratch.
func TestClassScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s ClassScratch
	var kept [][]ClassGroup
	var keptWant [][]ClassGroup
	for trial := 0; trial < 60; trial++ {
		nClasses := 1 + rng.Intn(7)
		n := 1 + rng.Intn(4000)
		if trial%3 == 1 {
			n = 1 + rng.Intn(8)
		}
		distinct := rng.Intn(3000) - 100 // some all-distinct
		values, labels := randomProjection(rng, n, distinct, nClasses)
		want := referenceGroupClasses(values, labels, nClasses)
		got := s.Group(values, labels, nClasses)
		if !sameGroups(got, want) {
			t.Fatalf("trial %d (n=%d, classes=%d): got %v, want %v", trial, n, nClasses, got, want)
		}
		kept = append(kept, got)
		keptWant = append(keptWant, want)
	}
	// Outputs of earlier calls are untouched by later ones.
	for i := range kept {
		if !sameGroups(kept[i], keptWant[i]) {
			t.Fatalf("output %d changed after the scratch was reused", i)
		}
	}
}

// TestGroupClassesNaN checks NaN rows neither panic nor hang, and that
// every row is still counted exactly once.
func TestGroupClassesNaN(t *testing.T) {
	values := []float64{math.NaN(), 1, math.NaN(), -math.NaN(), 0, math.Inf(1)}
	labels := []int{0, 1, 1, 0, 1, 0}
	got := GroupClasses(values, labels, 2)
	rows := 0
	for _, g := range got {
		rows += g.Rows()
	}
	if rows != len(values) {
		t.Fatalf("NaN grouping counted %d rows, want %d: %v", rows, len(values), got)
	}
}

// TestGroupClassesLabelOutOfRange pins that a label outside
// [0, nClasses) is a caller bug reported by panic, never a silent
// count in a neighbouring group.
func TestGroupClassesLabelOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("label 2 with 2 classes: want panic")
		}
	}()
	GroupClasses([]float64{1, 2}, []int{0, 2}, 2)
}

// TestClassScratchAllocs is the allocation gate: a warm scratch
// allocates only the output — for Group the group slice and one
// backing array for all histograms, for ValueGroups the one value-group
// slice — however many rows it groups.
func TestClassScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1000, 20000, 125000} {
		values, labels := randomProjection(rng, n, 700, 7)
		var s ClassScratch
		s.Group(values, labels, 7) // warm
		// The process's first GC cycle starts the runtime's mark-worker
		// goroutines, which would count as allocations: run it first.
		runtime.GC()
		allocs := testing.AllocsPerRun(5, func() { s.Group(values, labels, 7) })
		if allocs != 2 {
			t.Fatalf("%d rows: %v allocs per warm Group, want 2", n, allocs)
		}
		allocs = testing.AllocsPerRun(5, func() { s.ValueGroups(values, labels, 7) })
		if allocs != 1 {
			t.Fatalf("%d rows: %v allocs per warm ValueGroups, want 1", n, allocs)
		}
	}
}

// FuzzGroupClasses is the differential target of the one grouping
// routine. Against the sort-based oracle it runs on arbitrary float
// bit patterns with NaN replaced by 0, since the oracle leaves NaN's
// order unspecified. With NaN bit patterns kept, both sides of the
// other checks share Group's key order: merging the groups of shards
// cut wherever a label byte has its top bit set gives the groups of
// all rows, and ValueGroups derives what ValueGroupsOf does. One
// scratch is reused across the fuzzer's calls.
func FuzzGroupClasses(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, uint8(3))
	// 1, NaN | 2: the NaN group must not swallow 2 in the merge.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0,
		1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0x80,
		0, 0, 0, 0, 0, 0, 0, 0x40, 1,
	}, uint8(1))
	var s ClassScratch
	f.Fuzz(func(t *testing.T, data []byte, classes uint8) {
		nClasses := 1 + int(classes%8)
		var values, clean []float64
		var labels, cuts []int
		for len(data) >= 9 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			values = append(values, v)
			if v != v {
				v = 0
			}
			clean = append(clean, v)
			labels = append(labels, int(data[8])%nClasses)
			if data[8]&0x80 != 0 {
				cuts = append(cuts, len(values))
			}
			data = data[9:]
		}
		want := referenceGroupClasses(clean, labels, nClasses)
		if got := s.Group(clean, labels, nClasses); !sameGroups(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		all := s.Group(values, labels, nClasses)
		var shards [][]ClassGroup
		lo := 0
		for _, hi := range append(cuts, len(values)) {
			shards = append(shards, s.Group(values[lo:hi], labels[lo:hi], nClasses))
			lo = hi
		}
		if got := MergeClassGroups(shards); !sameGroupBits(got, all) {
			t.Fatalf("merged %v, want %v", got, all)
		}
		got, derived := s.ValueGroups(values, labels, nClasses), ValueGroupsOf(all)
		if len(got) != len(derived) {
			t.Fatalf("ValueGroups = %v, ValueGroupsOf = %v", got, derived)
		}
		for i := range got {
			g, w := got[i], derived[i]
			if math.Float64bits(g.Value) != math.Float64bits(w.Value) || g.Count != w.Count || g.Mono != w.Mono || g.Label != w.Label {
				t.Fatalf("group %d: ValueGroups = %+v, ValueGroupsOf = %+v", i, g, w)
			}
		}
	})
}

// BenchmarkGroupClasses groups one 125k-row shard's projection with a
// warm per-worker scratch in two regimes: covertype-like (7k distinct
// values, 7 classes) and all-distinct.
func BenchmarkGroupClasses(b *testing.B) {
	const n = 125_000
	for _, c := range []struct {
		name     string
		distinct int
	}{{"covertype", 7000}, {"distinct", 0}} {
		b.Run(c.name, func(b *testing.B) {
			values, labels := randomProjection(rand.New(rand.NewSource(1)), n, c.distinct, 7)
			var s ClassScratch
			s.Group(values, labels, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groupSink = s.Group(values, labels, 7)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

var groupSink []ClassGroup
