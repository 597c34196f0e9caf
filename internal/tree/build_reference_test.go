package tree

import (
	"context"
	"fmt"
	"sort"

	"privtree/internal/dataset"
	"privtree/internal/parallel"
	"privtree/internal/runs"
)

// buildReference is the in-memory builder as it stood before the
// attribute-list rewrite, kept verbatim as the differential oracle for
// Build: a comparison-sorted presort, per-node child index lists and a
// per-node attribute fan-out.
func buildReference(d *dataset.Dataset, cfg Config) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.NumTuples() == 0 {
		return nil, fmt.Errorf("no training tuples: %w", ErrEmptyData)
	}
	if d.NumAttrs() == 0 {
		return nil, fmt.Errorf("%w: %w", ErrEmptyData, dataset.ErrNoAttributes)
	}
	cfg = cfg.withDefaults()
	flipped := make([]bool, d.NumAttrs())
	if cfg.Orientation == OrientationCanonical {
		d, flipped = canonicalOrientation(d)
	}
	b := newRefBuilder(d, cfg)
	b.flipped = flipped
	idx := make([]int, d.NumTuples())
	for i := range idx {
		idx[i] = i
	}
	root := b.grow(b.orders, idx, 0)
	unflip(root, flipped)
	return &Tree{
		Root:       root,
		AttrNames:  append([]string(nil), d.AttrNames...),
		ClassNames: append([]string(nil), d.ClassNames...),
		Config:     cfg,
	}, nil
}

// canonicalOrientation returns a view of d in which every attribute
// whose descending class string is lexicographically smaller than its
// ascending one has been negated, plus the per-attribute flip flags.
// Negation reverses the value order while preserving tie blocks, so the
// flipped attribute's ascending class string is exactly the canonical
// descending reading of the original.
func canonicalOrientation(d *dataset.Dataset) (*dataset.Dataset, []bool) {
	flipped := make([]bool, d.NumAttrs())
	var view *dataset.Dataset
	for a := 0; a < d.NumAttrs(); a++ {
		if d.IsCategorical(a) {
			continue // category codes have no order to canonicalize
		}
		asc := runs.ClassStringOf(d, a)
		desc := runs.ClassStringDescendingOf(d, a)
		if !lexLess(desc, asc) {
			continue
		}
		flipped[a] = true
		if view == nil {
			// Shallow copy: only flipped columns are duplicated.
			cp := *d
			cp.Cols = append([][]float64(nil), d.Cols...)
			view = &cp
		}
		col := make([]float64, len(d.Cols[a]))
		for i, v := range d.Cols[a] {
			col[i] = -v
		}
		view.Cols[a] = col
	}
	if view == nil {
		return d, flipped
	}
	return view, flipped
}

type refBuilder struct {
	d   *dataset.Dataset
	cfg Config
	// flipped marks the attributes canonical orientation negated.
	flipped []bool
	// workers is the resolved fan-out width of the split search.
	workers int
	// orders holds, per numeric attribute, every tuple index sorted by
	// (value, label) — the SPRINT-style presort that lets split search
	// scan attributes without re-sorting at every node. Categorical
	// attributes keep a nil order.
	orders [][]int
	// side is per-tuple scratch for stable list partitioning: the
	// branch index each member of the current node goes to.
	side []int32
	// left and right are class-count scratch for the serial split scan;
	// concurrent scans allocate their own.
	left, right []int
	// numNodes and numLeaves count the grown tree for the observability
	// layer. grow runs on a single goroutine (only split search inside a
	// node fans out), so plain increments suffice.
	numNodes, numLeaves int64
}

// newRefBuilder presorts the attribute orders once; split search then runs
// in linear time per attribute per node.
func newRefBuilder(d *dataset.Dataset, cfg Config) *refBuilder {
	b := &refBuilder{
		d:       d,
		cfg:     cfg,
		workers: parallel.ResolveWorkers(cfg.Workers),
		side:    make([]int32, d.NumTuples()),
		left:    make([]int, d.NumClasses()),
		right:   make([]int, d.NumClasses()),
	}
	b.orders = make([][]int, d.NumAttrs())
	for a := range b.orders {
		if d.IsCategorical(a) {
			continue
		}
		order := make([]int, d.NumTuples())
		for i := range order {
			order[i] = i
		}
		col := d.Cols[a]
		labels := d.Labels
		sort.Slice(order, func(x, y int) bool {
			ix, iy := order[x], order[y]
			if col[ix] != col[iy] {
				return col[ix] < col[iy]
			}
			return labels[ix] < labels[iy]
		})
		b.orders[a] = order
	}
	return b
}

// grow recursively builds the subtree over the tuples in idx. lists[a]
// holds the same subset in ascending (value, label) order of numeric
// attribute a; the presort is maintained through stable partitioning, so
// no node ever sorts.
func (b *refBuilder) grow(lists [][]int, idx []int, dep int) *Node {
	counts := make([]int, b.d.NumClasses())
	for _, i := range idx {
		counts[b.d.Labels[i]]++
	}
	b.numNodes++
	node := &Node{Counts: counts, Class: argmax(counts)}
	if b.stop(counts, len(idx), dep) {
		node.Leaf = true
		b.numLeaves++
		return node
	}
	best, ok := b.bestSplit(lists, idx, counts)
	if !ok {
		node.Leaf = true
		b.numLeaves++
		return node
	}
	node.Attr = best.attr
	col := b.d.Cols[best.attr]
	if best.multiway {
		node.Multiway = true
		node.Cats = best.cats
		pos := make(map[int]int32, len(best.cats))
		for i, c := range best.cats {
			pos[c] = int32(i)
		}
		for _, i := range idx {
			b.side[i] = pos[int(col[i])]
		}
		childLists, childIdx := b.partition(lists, idx, len(best.cats))
		node.Branches = make([]*Node, len(best.cats))
		for i := range node.Branches {
			node.Branches[i] = b.grow(childLists[i], childIdx[i], dep+1)
		}
		return node
	}
	node.Threshold = best.nodeThreshold(b.flipped[best.attr])
	for _, i := range idx {
		if col[i] <= best.threshold {
			b.side[i] = 0
		} else {
			b.side[i] = 1
		}
	}
	childLists, childIdx := b.partition(lists, idx, 2)
	node.Left = b.grow(childLists[0], childIdx[0], dep+1)
	node.Right = b.grow(childLists[1], childIdx[1], dep+1)
	return node
}

// partition filters idx and every attribute order stably into k children
// according to the branch indices stored in b.side. Stability preserves
// the (value, label) presort within every child.
func (b *refBuilder) partition(lists [][]int, idx []int, k int) (childLists [][][]int, childIdx [][]int) {
	childIdx = make([][]int, k)
	for _, i := range idx {
		s := b.side[i]
		childIdx[s] = append(childIdx[s], i)
	}
	childLists = make([][][]int, k)
	for c := range childLists {
		childLists[c] = make([][]int, len(lists))
	}
	for a, order := range lists {
		if order == nil {
			continue
		}
		for c := range childLists {
			childLists[c][a] = make([]int, 0, len(childIdx[c]))
		}
		for _, i := range order {
			s := b.side[i]
			childLists[s][a] = append(childLists[s][a], i)
		}
	}
	return childLists, childIdx
}

// stop reports whether a node must become a leaf before split search.
func (b *refBuilder) stop(counts []int, n, dep int) bool {
	return stopNode(b.cfg, counts, n, dep)
}

// bestSplit searches all attributes for the impurity-optimal split.
// Each attribute's candidate search is independent, so at nodes with at
// least ParallelMinRows tuples (and Workers > 1) the attributes are
// evaluated concurrently; the per-attribute winners are then reduced in
// attribute order — the same order the serial loop visits them — so the
// selected split is identical at any worker count.
func (b *refBuilder) bestSplit(lists [][]int, idx []int, counts []int) (split, bool) {
	total := len(idx)
	parentImp := b.cfg.Criterion.Impurity(counts, total)
	m := b.d.NumAttrs()
	if b.workers > 1 && total >= ParallelMinRows && m > 1 {
		cands := make([]split, m)
		founds := make([]bool, m)
		// fn never returns an error, so ForEach cannot fail.
		_ = parallel.ForEach(context.Background(), m, b.workers, func(a int) error {
			left := make([]int, len(counts))
			right := make([]int, len(counts))
			cands[a], founds[a] = b.attrBest(a, lists[a], idx, counts, parentImp, left, right)
			return nil
		})
		var best split
		found := false
		for a := 0; a < m; a++ {
			if founds[a] && (!found || cands[a].better(&best, 1e-12)) {
				best = cands[a]
				found = true
			}
		}
		return best, found
	}
	var best split
	found := false
	for a := 0; a < m; a++ {
		if cand, ok := b.attrBest(a, lists[a], idx, counts, parentImp, b.left, b.right); ok {
			if !found || cand.better(&best, 1e-12) {
				best = cand
				found = true
			}
		}
	}
	return best, found
}

// attrBest returns attribute a's best candidate split over the node's
// tuples, scanning the presorted list once for numeric attributes. left
// and right are class-count scratch owned by the caller.
func (b *refBuilder) attrBest(a int, order []int, idx []int, counts []int, parentImp float64, left, right []int) (split, bool) {
	if b.d.IsCategorical(a) {
		return b.categoricalSplit(idx, counts, a, parentImp)
	}
	total := len(idx)
	col := b.d.Cols[a]
	labels := b.d.Labels
	var best split
	found := false
	for c := range left {
		left[c] = 0
		right[c] = counts[c]
	}
	nLeft := 0
	boundary := 0
	k := 0
	for k < len(order) {
		// Advance over the group of equal values, tracking whether
		// it is label-pure and which label it carries.
		v := col[order[k]]
		groupLabel := labels[order[k]]
		pure := true
		for {
			l := labels[order[k]]
			if l != groupLabel {
				pure = false
			}
			left[l]++
			right[l]--
			nLeft++
			k++
			// A NaN equals nothing, itself included, so it forms a group
			// of one; the loop must still consume it.
			if k == len(order) || col[order[k]] != v {
				break
			}
		}
		if k == len(order) {
			break
		}
		boundary++
		if nLeft < b.cfg.MinLeaf || total-nLeft < b.cfg.MinLeaf {
			continue
		}
		next := col[order[k]]
		if v != v || next != next {
			continue // a NaN neighbour: no threshold separates the groups
		}
		// Lemma 2: a boundary strictly inside a label run — both
		// adjacent groups pure with the same label — can never be
		// optimal, so skip it (unless benchmarking the full scan).
		if !b.cfg.FullSplitScan {
			nextLabel := labels[order[k]]
			if pure && groupLabel == nextLabel && groupPure(col, labels, order, k) {
				continue
			}
		}
		nRight := total - nLeft
		imp := float64(nLeft)/float64(total)*b.cfg.Criterion.Impurity(left, nLeft) +
			float64(nRight)/float64(total)*b.cfg.Criterion.Impurity(right, nRight)
		gain := parentImp - imp
		if b.cfg.Criterion == GainRatio {
			si := splitInfo(nLeft, nRight, total)
			if si <= 0 {
				continue
			}
			gain /= si
		}
		if gain < b.cfg.MinGain {
			continue
		}
		cand := split{
			attr:      a,
			threshold: splitThreshold(v, next),
			mirror:    -splitThreshold(-next, -v),
			gain:      gain,
			boundary:  boundary,
		}
		// The signature is only needed for tie comparisons; skip the
		// copies when the candidate is not competitive.
		if !found || cand.gain >= best.gain-1e-12 {
			refSignature(&cand, left, right)
			if !found || cand.better(&best, 1e-12) {
				best = cand
				found = true
			}
		}
	}
	return best, found
}

// groupPure reports whether the group of equal values starting at
// position k of the order is label-pure.
func groupPure(col []float64, labels []int, order []int, k int) bool {
	v, l := col[order[k]], labels[order[k]]
	for j := k + 1; j < len(order) && col[order[j]] == v; j++ {
		if labels[order[j]] != l {
			return false
		}
	}
	return true
}

// categoricalSplit builds the multiway candidate of a categorical
// attribute: one branch per category code present in the subset. The
// candidate is valid when at least two codes occur and every branch
// meets MinLeaf.
func (b *refBuilder) categoricalSplit(idx []int, counts []int, a int, parentImp float64) (split, bool) {
	col := b.d.Cols[a]
	k := b.d.NumCategories(a)
	perCode := make([][]int, k)
	sizes := make([]int, k)
	for _, i := range idx {
		c := int(col[i])
		if perCode[c] == nil {
			perCode[c] = make([]int, len(counts))
		}
		perCode[c][b.d.Labels[i]]++
		sizes[c]++
	}
	var cats []int
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			continue
		}
		if sizes[c] < b.cfg.MinLeaf {
			return split{}, false
		}
		cats = append(cats, c)
	}
	if len(cats) < 2 {
		return split{}, false
	}
	total := len(idx)
	imp := 0.0
	branchSizes := make([]int, 0, len(cats))
	branches := make([][]int, 0, len(cats))
	for _, c := range cats {
		imp += float64(sizes[c]) / float64(total) * b.cfg.Criterion.Impurity(perCode[c], sizes[c])
		branchSizes = append(branchSizes, sizes[c])
		branches = append(branches, perCode[c])
	}
	gain := parentImp - imp
	if b.cfg.Criterion == GainRatio {
		si := splitInfoSizes(branchSizes, total)
		if si <= 0 {
			return split{}, false
		}
		gain /= si
	}
	if gain < b.cfg.MinGain {
		return split{}, false
	}
	cand := split{attr: a, multiway: true, cats: cats, gain: gain}
	refSignature(&cand, branches...)
	return cand, true
}

// refSignature is split.signature as it stood: the child class-count
// vectors ordered by a reflective sort.
func refSignature(s *split, branches ...[]int) {
	ordered := make([][]int, len(branches))
	copy(ordered, branches)
	sort.Slice(ordered, func(i, j int) bool { return lexLess(ordered[i], ordered[j]) })
	s.sig = s.sig[:0]
	for _, b := range ordered {
		s.sig = append(s.sig, b...)
	}
}
