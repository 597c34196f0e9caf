package tree

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
)

// In-memory tree induction over presorted attribute lists, in the
// style of SPRINT (Shafer, Agrawal & Mehta, VLDB 1996):
//
//   - Every attribute is sorted once, by (value, label), into a list of
//     (key, row, label) entries with the shared radix sort; the
//     attributes sort concurrently. Canonical orientation is decided on
//     the sorted list, and a flipped attribute's list is rewritten once
//     into the list of the negated column.
//   - A node owns the same range [lo, hi) of every list, so the split
//     scan reads keys and labels sequentially. A split, binary or
//     multiway, partitions each list's range stably through one routine,
//     which keeps every child's range sorted.
//   - Children own disjoint ranges and rows, so subtrees grow
//     concurrently, each goroutine with scratch of its own.
//
// Groups of equal values are runs of equal dataset.OrderedBits keys:
// -0.0 and +0.0 form one group, and each NaN bit pattern one group,
// exactly as runs.ClassScratch groups for BuildSharded.

// Build mines a decision tree from d with the given configuration.
func Build(d *dataset.Dataset, cfg Config) (*Tree, error) {
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
	sp := obs.StartSpan("mine/build")
	b, sc := newBuilder(d, cfg, sp)
	counts := make([]int, b.nClasses)
	for _, l := range d.Labels {
		counts[l]++
	}
	root := b.grow(sc, 0, d.NumTuples(), counts, 0)
	// Hand this goroutine's scratch on: subtrees still growing can spawn
	// into the capacity it no longer uses while it waits.
	b.spare <- sc
	b.wg.Wait()
	if cfg.Orientation == OrientationCanonical {
		unflip(root, b.flipped)
	}
	sp.End()
	if obs.Enabled() {
		obs.Add("tree.builds", 1)
		obs.Add("tree.nodes", b.numNodes.Load())
		obs.Add("tree.leaves", b.numLeaves.Load())
	}
	return &Tree{
		Root:       root,
		AttrNames:  append([]string(nil), d.AttrNames...),
		ClassNames: append([]string(nil), d.ClassNames...),
		Config:     cfg,
	}, nil
}

// unflip rewrites a tree mined in canonical orientation back into the
// data's own orientation: nodes on flipped attributes negate their
// threshold and swap children ("-v <= t" is "v >= -t"). Such nodes hold
// the split's mirror (split.nodeThreshold), so the negated threshold
// separates the same rows.
func unflip(n *Node, flipped []bool) {
	if n == nil || n.Leaf {
		return
	}
	// Multiway (categorical) nodes are never flipped themselves, but
	// their branches may contain flipped numeric splits.
	if !n.Multiway && flipped[n.Attr] {
		n.Threshold = -n.Threshold
		n.Left, n.Right = n.Right, n.Left
	}
	for _, c := range children(n) {
		unflip(c, flipped)
	}
}

// entry is one tuple of an attribute list: the dataset.OrderedBits key
// of its value of the attribute (negated if canonical orientation
// flipped the attribute), its row and its class label. Equal keys are
// equal values — the key folds -0.0 onto +0.0, which no threshold or
// route can tell apart — so the scan compares integers.
type entry = dataset.RadixEntry

// groupEnd returns the end of the group of equal values starting at k.
func groupEnd(list []entry, k int) int {
	key := list[k].Key
	j := k + 1
	for j < len(list) && list[j].Key == key {
		j++
	}
	return j
}

// groupStart returns the start of the group of equal values ending just
// before end.
func groupStart(list []entry, end int) int {
	key := list[end-1].Key
	k := end - 1
	for k > 0 && list[k-1].Key == key {
		k--
	}
	return k
}

type builder struct {
	d        *dataset.Dataset
	cfg      Config
	nClasses int
	// categorical marks the attributes whose splits are multiway.
	categorical []bool
	// lists[a] holds every tuple in ascending (value, label) order of
	// attribute a, canonically oriented. Categorical attributes sort
	// their codes the same way, which lays a node's range out branch by
	// branch.
	lists [][]entry
	// side is per-row scratch: the branch each row of the node being
	// split goes to. Nodes own disjoint rows, so concurrent subtrees
	// share it.
	side []int32
	// flipped marks the attributes canonical orientation negated.
	flipped []bool
	// spare holds the scratch of the goroutines subtrees can be handed
	// to, Workers-1 beside the caller's: a spawn takes one, and its
	// goroutine puts it back when the subtree is grown. The caller adds
	// its own once it has nothing left to grow but waits.
	spare chan *growScratch
	wg    sync.WaitGroup
	// numNodes and numLeaves count the grown tree for the observability
	// layer.
	numNodes, numLeaves atomic.Int64
}

// growScratch is one goroutine's working memory. It is reused from node
// to node; nothing a node keeps aliases it.
type growScratch struct {
	buf    []entry // the stable-partition buffer
	scan   splitScan
	best   split   // the node's best split over all attributes
	cat    split   // a categorical attribute's candidate
	counts []int   // per-branch class counts of a categorical candidate
	sizes  []int   // per-branch tuple counts of a categorical candidate
	bs     [][]int // the candidate's branch counts, for its signature
	bounds []int   // a binary split's {lo, mid, hi}
	pos    []int   // per-branch write positions of a partition
}

// newBuilder sorts every attribute into its list, one attribute per
// worker at a time, and returns the builder plus the root's scratch.
func newBuilder(d *dataset.Dataset, cfg Config, sp *obs.Span) (*builder, *growScratch) {
	workers := parallel.ResolveWorkers(cfg.Workers)
	m := d.NumAttrs()
	b := &builder{
		d:           d,
		cfg:         cfg,
		nClasses:    d.NumClasses(),
		categorical: make([]bool, m),
		lists:       make([][]entry, m),
		side:        make([]int32, d.NumTuples()),
		flipped:     make([]bool, m),
		spare:       make(chan *growScratch, workers),
	}
	for a := range b.categorical {
		b.categorical[a] = d.IsCategorical(a)
	}
	psp := sp.Child("presort")
	bufs := make([][]entry, workers)
	// presort never fails, so neither can the fan-out.
	_ = parallel.ForEachWorker(context.Background(), m, workers, func(w, a int) error {
		b.lists[a], bufs[w] = b.presort(a, bufs[w])
		return nil
	})
	psp.End()
	// The presort buffers become the goroutines' partition buffers.
	for w := 1; w < workers; w++ {
		b.spare <- &growScratch{buf: bufs[w]}
	}
	return b, &growScratch{buf: bufs[0]}
}

// presort builds attribute a's list with buf as the sort's second
// buffer, and returns the list and the buffer left over.
func (b *builder) presort(a int, buf []entry) (list, rest []entry) {
	col, labels := b.d.Cols[a], b.d.Labels
	list = make([]entry, len(col))
	for i, v := range col {
		list[i] = entry{Key: dataset.OrderedBits(v), Row: int32(i), Label: int32(labels[i])}
	}
	buf = slices.Grow(buf[:0], len(list))[:len(list)]
	if sorted := dataset.SortRadix(list, buf, 0, make([]int, b.nClasses)); &sorted[0] != &list[0] {
		list, buf = buf, list
	}
	if b.cfg.Orientation == OrientationCanonical && !b.categorical[a] && descendingLess(list) {
		b.flipped[a] = true
		flipList(buf, list)
		list, buf = buf, list
	}
	return list, buf
}

// descendingLess reports whether the attribute's descending class
// string — its groups of equal values back to front, labels ascending
// within each — is lexicographically smaller than its ascending one:
// the canonical-orientation flip test. It walks the sorted list without
// building either string, the comparison runs.DescendingClassStringLess
// makes over class groups.
func descendingLess(list []entry) bool {
	i := 0 // position in the ascending string
	for end := len(list); end > 0; {
		start := groupStart(list, end)
		for _, e := range list[start:end] {
			if e.Label != list[i].Label {
				return e.Label < list[i].Label
			}
			i++
		}
		end = start
	}
	return false // equal strings
}

// flipList writes into dst the list of the negated attribute: src's
// groups of equal values in reverse order, each keeping its label
// order, values negated.
func flipList(dst, src []entry) {
	k := 0
	for end := len(src); end > 0; {
		start := groupStart(src, end)
		for _, e := range src[start:end] {
			e.Key = dataset.OrderedBits(-dataset.OrderedValue(e.Key))
			dst[k] = e
			k++
		}
		end = start
	}
}

// grow builds the subtree of the node that owns [lo, hi) of every list
// and has the given class counts.
func (b *builder) grow(sc *growScratch, lo, hi int, counts []int, dep int) *Node {
	b.numNodes.Add(1)
	node := &Node{Counts: counts, Class: argmax(counts)}
	if stopNode(b.cfg, counts, hi-lo, dep) || !b.bestSplit(sc, lo, hi, counts) {
		node.Leaf = true
		b.numLeaves.Add(1)
		return node
	}
	best := &sc.best
	node.Attr = best.attr
	if best.multiway {
		node.Multiway = true
		node.Cats = slices.Clone(best.cats)
		node.Branches = make([]*Node, len(node.Cats))
		bounds, kids := b.splitMultiway(sc, best.attr, lo, hi)
		for i := range node.Branches {
			b.growChild(sc, &node.Branches[i], bounds[i], bounds[i+1], kids[i], dep+1)
		}
		return node
	}
	node.Threshold = best.nodeThreshold(b.flipped[best.attr])
	mid, left, right := b.splitBinary(sc, best.attr, best.threshold, lo, hi, counts)
	b.growChild(sc, &node.Left, lo, mid, left, dep+1)
	b.growChild(sc, &node.Right, mid, hi, right, dep+1)
	return node
}

// growChild grows the child that owns [lo, hi) into *slot: on a spare
// goroutine when the child has at least ParallelMinRows tuples and a
// spare is free, and on the caller's goroutine otherwise. Every subtree
// is a function of its range alone, so the tree is the same whichever
// goroutine grows which part.
func (b *builder) growChild(sc *growScratch, slot **Node, lo, hi int, counts []int, dep int) {
	if hi-lo >= ParallelMinRows {
		select {
		case spare := <-b.spare:
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				*slot = b.grow(spare, lo, hi, counts, dep)
				b.spare <- spare
			}()
			return
		default:
		}
	}
	*slot = b.grow(sc, lo, hi, counts, dep)
}

// splitBinary applies the numeric split "value <= t" on attribute a to
// [lo, hi), and returns the boundary mid between the children's ranges
// and both children's class counts. Rows route by the threshold, as
// Predict and BuildSharded route them, not by the scan's boundary: NaN
// never goes low.
func (b *builder) splitBinary(sc *growScratch, a int, t float64, lo, hi int, counts []int) (mid int, left, right []int) {
	nc := b.nClasses
	kids := make([]int, 2*nc)
	left, right = kids[:nc:nc], kids[nc:]
	// value <= t, on keys: NaN keys lie outside [-Inf, +Inf]'s.
	kLo, kHi := dataset.OrderedBits(math.Inf(-1)), dataset.OrderedBits(t)
	mid = lo
	for _, e := range b.lists[a][lo:hi] {
		if kLo <= e.Key && e.Key <= kHi {
			b.side[e.Row] = 0
			left[e.Label]++
			mid++
		} else {
			b.side[e.Row] = 1
		}
	}
	for c, n := range counts {
		right[c] = n - left[c]
	}
	sc.bounds = append(sc.bounds[:0], lo, mid, hi)
	b.partition(sc, sc.bounds)
	return mid, left, right
}

// splitMultiway applies a categorical split of [lo, hi) on attribute a,
// one branch per code present, and returns the branches' bounds and
// class counts.
func (b *builder) splitMultiway(sc *growScratch, a, lo, hi int) (bounds []int, kids [][]int) {
	nc := b.nClasses
	list := b.lists[a]
	bounds = []int{lo}
	var counts []int
	for k := lo; k < hi; {
		j := groupEnd(list[:hi], k)
		br := int32(len(bounds) - 1)
		counts = slices.Grow(counts, nc)[:len(counts)+nc]
		c := counts[len(counts)-nc:]
		for _, e := range list[k:j] {
			b.side[e.Row] = br
			c[e.Label]++
		}
		bounds = append(bounds, j)
		k = j
	}
	kids = make([][]int, len(bounds)-1)
	for i := range kids {
		kids[i] = counts[i*nc : (i+1)*nc : (i+1)*nc]
	}
	b.partition(sc, bounds)
	return bounds, kids
}

// partition stably orders every list's range [bounds[0], bounds[k]) by
// the branch b.side routes each entry's row to, branch i landing at
// bounds[i]. The entries go through the goroutine's buffer and back.
func (b *builder) partition(sc *growScratch, bounds []int) {
	lo, hi := bounds[0], bounds[len(bounds)-1]
	if cap(sc.buf) < hi-lo {
		sc.buf = make([]entry, hi-lo)
	}
	buf, side := sc.buf[:hi-lo], b.side
	for _, list := range b.lists {
		pos := sc.pos[:0]
		for _, p := range bounds[:len(bounds)-1] {
			pos = append(pos, p-lo)
		}
		for _, e := range list[lo:hi] {
			s := side[e.Row]
			buf[pos[s]] = e
			pos[s]++
		}
		copy(list[lo:hi], buf)
		sc.pos = pos
	}
}

// bestSplit searches every attribute of the node that owns [lo, hi)
// for the impurity-optimal split and leaves it in sc.best. The
// attributes are visited in index order and each one's winner folds
// into the node's best in that order.
func (b *builder) bestSplit(sc *growScratch, lo, hi int, counts []int) bool {
	total := hi - lo
	parentImp := b.cfg.Criterion.Impurity(counts, total)
	if obs.Enabled() {
		start := time.Now()
		defer obs.Since("tree.split_search_ns", start)
		obs.Add("tree.split_scans", int64(len(b.lists)))
	}
	s := &sc.scan
	s.init(&b.cfg, counts, total, parentImp)
	found := false
	for a, list := range b.lists {
		var cand *split
		if b.categorical[a] {
			if !b.categoricalSplit(sc, a, list[lo:hi], counts, parentImp) {
				continue
			}
			cand = &sc.cat
		} else {
			if !s.entries(a, list[lo:hi]) {
				continue
			}
			cand = &s.best
		}
		if !found || cand.better(&sc.best, 1e-12) {
			sc.best.keep(cand)
			found = true
		}
	}
	return found
}

// entries scans attribute a's range of its list: each group of equal
// values joins the left side, and every boundary between two groups is
// evaluated. Within a group labels ascend, so a group is label-pure
// exactly when its first and last labels agree.
func (s *splitScan) entries(a int, list []entry) bool {
	s.start(a)
	k, j := 0, groupEnd(list, 0)
	for {
		if l := list[k].Label; l == list[j-1].Label {
			s.left[l] += j - k // a pure group
		} else {
			for _, e := range list[k:j] {
				s.left[e.Label]++
			}
		}
		s.nLeft += j - k
		if j == len(list) {
			return s.found
		}
		next := groupEnd(list, j)
		s.boundary(dataset.OrderedValue(list[k].Key), dataset.OrderedValue(list[j].Key),
			int(list[k].Label), list[k].Label == list[j-1].Label,
			int(list[j].Label), list[j].Label == list[next-1].Label)
		k, j = j, next
	}
}

// categoricalSplit builds attribute a's multiway candidate in sc.cat
// from its range of the list: one branch per category code present,
// the codes' groups in ascending order. The candidate is valid when at
// least two codes occur and every branch meets MinLeaf.
func (b *builder) categoricalSplit(sc *growScratch, a int, list []entry, counts []int, parentImp float64) bool {
	nc := b.nClasses
	cand := &sc.cat
	cand.cats, sc.sizes, sc.counts = cand.cats[:0], sc.sizes[:0], sc.counts[:0]
	for k := 0; k < len(list); {
		j := groupEnd(list, k)
		if j-k < b.cfg.MinLeaf {
			return false
		}
		cand.cats = append(cand.cats, int(dataset.OrderedValue(list[k].Key)))
		sc.sizes = append(sc.sizes, j-k)
		sc.counts = slices.Grow(sc.counts, nc)[:len(sc.counts)+nc]
		c := sc.counts[len(sc.counts)-nc:]
		clear(c)
		for _, e := range list[k:j] {
			c[e.Label]++
		}
		k = j
	}
	if len(cand.cats) < 2 {
		return false
	}
	total := len(list)
	imp := 0.0
	sc.bs = sc.bs[:0]
	for i, n := range sc.sizes {
		c := sc.counts[i*nc : (i+1)*nc]
		imp += float64(n) / float64(total) * b.cfg.Criterion.Impurity(c, n)
		sc.bs = append(sc.bs, c)
	}
	gain := parentImp - imp
	if b.cfg.Criterion == GainRatio {
		si := splitInfoSizes(sc.sizes, total)
		if si <= 0 {
			return false
		}
		gain /= si
	}
	if gain < b.cfg.MinGain {
		return false
	}
	cand.attr, cand.multiway, cand.gain, cand.boundary = a, true, gain, 0
	cand.sig = multiwaySignature(cand.sig[:0], sc.bs)
	return true
}
