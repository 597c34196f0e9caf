package runs

import (
	"math/bits"
	"slices"
	"sync"

	"privtree/internal/dataset"
)

// Class-count groups: the one grouping substrate of the repo. For one
// attribute, the groups record — per distinct value, in ascending
// value order — how many tuples of each class carry that value. Every
// per-value statistic the paper reads is a function of these
// histograms:
//
//   - the decision-tree split search (Lemma 2): the running left/right
//     class counts, each group's "first tuple" label in canonical
//     (value, label) order (the minimum class with a nonzero count),
//     label purity (exactly one nonzero class), and the candidate
//     thresholds between consecutive group values;
//   - the encoder's value groups (Definitions 6–9): a ValueGroup is the
//     histogram's total, its lowest present class and whether that
//     class is the only one (ValueGroupsOf, LabelMono);
//   - class strings (Definition 6, Lemma 1): within a value the
//     canonical tie order lists labels ascending, so a group expands to
//     its classes in index order with their multiplicities — front to
//     back for the ascending string, back to front for the descending
//     one (ClassStringOf, ClassStringDescendingOf).
//
// ClassGroup admits an exact, order-insensitive combine (counts sum),
// so per-shard sorted group runs merge into element-identical global
// groups (MergeClassGroups) — the algebra that lets the profile stage
// and tree induction run out-of-core over a sharded relation while
// reproducing the in-memory results bit for bit.

// ClassGroup aggregates the tuples sharing one distinct value of an
// attribute into a per-class count histogram.
type ClassGroup struct {
	// Value is the shared attribute value.
	Value float64
	// Counts holds one tuple count per class label.
	Counts []int
}

// Rows returns the number of tuples in the group.
func (g ClassGroup) Rows() int {
	n := 0
	for _, c := range g.Counts {
		n += c
	}
	return n
}

// LabelMono reads a group's class histogram: label is the lowest class
// with a nonzero count — the label of the group's first tuple in
// canonical (value, label) order — and mono reports whether it is the
// only such class.
func LabelMono(counts []int) (label int, mono bool) {
	label = -1
	nonzero := 0
	for c, n := range counts {
		if n == 0 {
			continue
		}
		if label < 0 {
			label = c
		}
		nonzero++
	}
	return label, nonzero == 1
}

// valueGroup derives the ValueGroup of a class-count group.
func valueGroup(g ClassGroup) ValueGroup {
	label, mono := LabelMono(g.Counts)
	return ValueGroup{Value: g.Value, Count: g.Rows(), Mono: mono, Label: label}
}

// ValueGroupsOf derives the value groups of class-count groups, one
// per group in the same order.
func ValueGroupsOf(groups []ClassGroup) []ValueGroup {
	if len(groups) == 0 {
		return nil
	}
	out := make([]ValueGroup, len(groups))
	for i, g := range groups {
		out[i] = valueGroup(g)
	}
	return out
}

// GroupClasses builds the class-count groups of one attribute
// projection: values[i] carries class labels[i], labels lie in
// [0, nClasses). The input need not be sorted; the output is in
// ascending value order. It is ClassScratch.Group with a throwaway
// scratch.
func GroupClasses(values []float64, labels []int, nClasses int) []ClassGroup {
	return new(ClassScratch).Group(values, labels, nClasses)
}

// scratchPool lends scratches for grouping whole dataset columns, so
// callers that group in tight loops — the risk grids encode a column
// per trial — reuse the hash table instead of growing a fresh one per
// call.
var scratchPool = sync.Pool{New: func() any { return new(ClassScratch) }}

// GetClassScratch hands out a pooled scratch; return it with
// PutClassScratch when done. A fan-out takes one per worker for a
// whole stage, so it meets the pool once per worker, not per column.
func GetClassScratch() *ClassScratch { return scratchPool.Get().(*ClassScratch) }

// PutClassScratch returns a scratch to the pool. The caller must not
// use it after the put.
func PutClassScratch(s *ClassScratch) { scratchPool.Put(s) }

// AttrGroups returns the value groups of attribute a of d in ascending
// value order: ClassScratch.ValueGroups over the column, in a pooled
// scratch.
func AttrGroups(d *dataset.Dataset, a int) []ValueGroup {
	s := GetClassScratch()
	defer PutClassScratch(s)
	return s.ValueGroups(d.Cols[a], d.Labels, d.NumClasses())
}

// ClassScratch is reusable working memory for ClassScratch.Group and
// ClassScratch.ValueGroups: an open-addressed hash table from value to
// group, the groups' value keys and flattened class counts, and the
// buffer the distinct keys are sorted in. A group's value is its key's
// dataset.OrderedValue: the value's own bits, NaN payloads included,
// with -0.0 folded onto +0.0.
//
// Ownership rules (DESIGN.md §5e, §5i): a scratch has one user at a
// time — fan-outs give each worker its own, one-off callers take one
// from the package pool — and every call overwrites every buffer
// before reading it, so nothing one call leaves behind reaches the
// next. The groups a call returns are freshly allocated and never
// alias the scratch.
type ClassScratch struct {
	table  []int32  // slot → group index + 1; 0 marks an empty slot
	keys   []uint64 // group → dataset.OrderedBits of its value
	counts []int    // group g's histogram at [g*nClasses, (g+1)*nClasses)
	sorted []uint64 // the distinct keys, ascending
	shift  uint     // 64 - log2(len(table)): slotOf keeps the top bits
}

// initialGroups caps the group count a fresh table is sized for: small
// projections get a table proportional to their rows, larger ones start
// here and double as distinct values arrive, so a call never clears
// more slots than its own input warrants.
const initialGroups = 1024

// Group builds the class-count groups of one attribute projection, like
// GroupClasses, in s's reused buffers. Rows are counted into a hash
// table keyed on the value's dataset.OrderedBits in O(rows); only the
// distinct keys are then sorted, in O(distinct · log distinct). Equality
// is ==: -0.0 and +0.0 form one group, whose Value is +0.0. Each NaN
// bit pattern forms one group, sorted by its sign bit past ±Inf.
func (s *ClassScratch) Group(values []float64, labels []int, nClasses int) []ClassGroup {
	if len(values) == 0 {
		return nil
	}
	s.count(values, labels, nClasses)
	out := make([]ClassGroup, len(s.sorted))
	backing := make([]int, len(s.sorted)*nClasses)
	for j, k := range s.sorted {
		g := s.find(k)
		c := backing[j*nClasses : (j+1)*nClasses : (j+1)*nClasses]
		copy(c, s.counts[g*nClasses:(g+1)*nClasses])
		out[j] = ClassGroup{Value: dataset.OrderedValue(k), Counts: c}
	}
	return out
}

// ValueGroups is ValueGroupsOf(s.Group(values, labels, nClasses))
// without the histograms: the groups are derived straight from the
// table into one exact-size slice.
func (s *ClassScratch) ValueGroups(values []float64, labels []int, nClasses int) []ValueGroup {
	if len(values) == 0 {
		return nil
	}
	s.count(values, labels, nClasses)
	out := make([]ValueGroup, len(s.sorted))
	for j, k := range s.sorted {
		g := s.find(k)
		out[j] = valueGroup(ClassGroup{Value: dataset.OrderedValue(k), Counts: s.counts[g*nClasses : (g+1)*nClasses]})
	}
	return out
}

// count hashes every row into its group's histogram and leaves the
// distinct keys in ascending order in s.sorted.
func (s *ClassScratch) count(values []float64, labels []int, nClasses int) {
	s.reset(min(len(values), initialGroups), nClasses)
	for i, v := range values {
		l := labels[i]
		if uint(l) >= uint(nClasses) {
			panic("runs: class label out of range")
		}
		s.counts[s.groupOf(v, nClasses)*nClasses+l]++
	}
	s.sorted = append(s.sorted[:0], s.keys...)
	slices.Sort(s.sorted)
}

// reset empties the scratch and sizes it for groups distinct values:
// the table to a power of two at least twice that, so probes stay
// short, and the per-group buffers to hold them all, so a fresh scratch
// allocates each buffer once instead of growing it value by value.
func (s *ClassScratch) reset(groups, nClasses int) {
	size := 8
	for size < 2*groups {
		size *= 2
	}
	s.resize(size)
	s.keys = slices.Grow(s.keys[:0], groups)
	s.counts = slices.Grow(s.counts[:0], groups*nClasses)
}

// groupOf returns the index of v's group, opening a zeroed group for a
// value not seen before.
func (s *ClassScratch) groupOf(v float64, nClasses int) int {
	k := dataset.OrderedBits(v)
	mask := len(s.table) - 1
	for h := s.slotOf(k); ; h = (h + 1) & mask {
		g := s.table[h]
		if g == 0 {
			s.table[h] = int32(len(s.keys) + 1)
			s.keys = append(s.keys, k)
			n := len(s.counts)
			s.counts = slices.Grow(s.counts, nClasses)[:n+nClasses]
			clear(s.counts[n:])
			if 2*len(s.keys) > len(s.table) {
				s.grow()
			}
			return len(s.keys) - 1
		}
		if s.keys[g-1] == k {
			return int(g - 1)
		}
	}
}

// find returns the group index of key k, which must be present.
func (s *ClassScratch) find(k uint64) int {
	mask := len(s.table) - 1
	for h := s.slotOf(k); ; h = (h + 1) & mask {
		if g := s.table[h]; s.keys[g-1] == k {
			return int(g - 1)
		}
	}
}

// grow doubles the table and reinserts every group; group indices, and
// so the counts, are unchanged.
func (s *ClassScratch) grow() {
	s.resize(2 * len(s.table))
	mask := len(s.table) - 1
	for g, k := range s.keys {
		h := s.slotOf(k)
		for s.table[h] != 0 {
			h = (h + 1) & mask
		}
		s.table[h] = int32(g + 1)
	}
}

// resize sets the table to size empty slots; size is a power of two.
func (s *ClassScratch) resize(size int) {
	if cap(s.table) < size {
		s.table = make([]int32, size)
	}
	s.table = s.table[:size]
	clear(s.table)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// slotOf is Fibonacci hashing: the top bits of the key times 2^64/φ,
// which every bit of the key feeds.
func (s *ClassScratch) slotOf(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> s.shift)
}

// FlipClassGroups rewrites groups in place into the groups of the
// negated attribute: ascending order of -v is descending order of v,
// and negation preserves value ties, so the result is exactly
// GroupClasses over the negated projection.
func FlipClassGroups(groups []ClassGroup) {
	for i, j := 0, len(groups)-1; i < j; i, j = i+1, j-1 {
		groups[i], groups[j] = groups[j], groups[i]
	}
	for i := range groups {
		groups[i].Value = -groups[i].Value
	}
}

// classString expands attribute a's class groups into its class
// string, walking the groups in direction dir (+1 ascending, -1
// descending).
func classString(d *dataset.Dataset, a, dir int) []int {
	s := GetClassScratch()
	groups := s.Group(d.Cols[a], d.Labels, d.NumClasses())
	PutClassScratch(s)
	out := make([]int, 0, len(d.Labels))
	var it rleIter
	it.init(groups, dir)
	for l, n := it.cur(); n > 0; l, n = it.cur() {
		for range n {
			out = append(out, l)
		}
		it.advance(n)
	}
	return out
}

// DescendingClassStringLess reports whether the attribute's descending
// class string is lexicographically smaller than its ascending one —
// the canonical-orientation flip test — read directly off the
// class-count groups. It walks the same label runs ClassStringOf and
// ClassStringDescendingOf expand, so it costs O(groups × classes), not
// O(rows).
func DescendingClassStringLess(groups []ClassGroup) bool {
	var desc, asc rleIter
	desc.init(groups, -1)
	asc.init(groups, +1)
	for {
		ld, nd := desc.cur()
		la, na := asc.cur()
		if nd == 0 || na == 0 {
			// Both strings have the same length, so they exhaust
			// together: equal strings are not less.
			return false
		}
		if ld != la {
			return ld < la
		}
		m := nd
		if na < m {
			m = na
		}
		desc.advance(m)
		asc.advance(m)
	}
}

// rleIter walks a class string run-length encoded off its class-count
// groups, in group order dir (+1 ascending, -1 descending). Within a
// group, classes always run ascending.
type rleIter struct {
	groups []ClassGroup
	dir    int
	gi     int // current group
	ci     int // current class within the group
	left   int // remaining labels of the current run
}

func (it *rleIter) init(groups []ClassGroup, dir int) {
	it.groups = groups
	it.dir = dir
	if dir > 0 {
		it.gi = 0
	} else {
		it.gi = len(groups) - 1
	}
	it.ci = -1
	it.nextRun()
}

// nextRun advances to the next nonzero class count, crossing group
// boundaries as needed.
func (it *rleIter) nextRun() {
	for it.gi >= 0 && it.gi < len(it.groups) {
		counts := it.groups[it.gi].Counts
		for it.ci++; it.ci < len(counts); it.ci++ {
			if counts[it.ci] > 0 {
				it.left = counts[it.ci]
				return
			}
		}
		it.gi += it.dir
		it.ci = -1
	}
	it.left = 0
}

// cur returns the current run's label and remaining length (0 when the
// string is exhausted).
func (it *rleIter) cur() (label, n int) {
	if it.left == 0 {
		return 0, 0
	}
	return it.ci, it.left
}

// advance consumes m labels of the current run.
func (it *rleIter) advance(m int) {
	it.left -= m
	if it.left == 0 {
		it.nextRun()
	}
}
