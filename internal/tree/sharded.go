package tree

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
	"privtree/internal/runs"
)

// Out-of-core tree induction. BuildSharded mines the same tree as
// Build — byte-identical, at any shard and worker count — without ever
// materializing the relation, by exploiting that the split search is a
// function of per-distinct-value class-count histograms rather than of
// rows:
//
//   - Build's scan over its (value, label) attribute lists only ever
//     consults, per group of equal values, the per-class counts (for
//     the running left/right distributions and impurities), the
//     minimum present label (the "first tuple" of the group in
//     canonical order), label purity, and the group's value (for the
//     threshold). All of these read directly off a runs.ClassGroup.
//   - The histograms merge exactly across shards (integer counts sum),
//     so per-shard sorted group runs folded with runs.MergeClassGroups
//     are element-identical to the groups of the whole relation — and
//     identical inputs to the same float arithmetic give identical
//     floats, thresholds, gains and tie-breaks.
//   - The canonical-orientation flip test compares ascending vs
//     descending class strings, both of which expand from the root's
//     groups (runs.DescendingClassStringLess), so orientation flips
//     match Build's exactly.
//
// The builder is level-synchronous in the RainForest style: one scan
// of all shards per tree level. Each scan streams every shard
// block-wise, routes each row through the partial tree to its frontier
// node, and reduces it into per-(node, attribute) class groups; the
// per-shard groups then merge in shard-index order. Peak row memory is
// O(workers × shard); what persists between levels is only the group
// histograms, O(distinct values) per attribute like the sharded
// profile stage.
//
// Sharded sources carry no categorical metadata (shard files are all
// numeric), so the categorical split path never triggers here.

// BuildSharded mines a decision tree from a sharded data set. The tree
// is byte-identical to Build over the materialized relation, at any
// shard and worker count.
func BuildSharded(src *dataset.ShardedSource, cfg Config) (*Tree, error) {
	schema := src.Schema()
	if schema.NumAttrs() == 0 {
		return nil, fmt.Errorf("%w: %w", ErrEmptyData, dataset.ErrNoAttributes)
	}
	if src.Total() == 0 {
		return nil, fmt.Errorf("no training tuples: %w", ErrEmptyData)
	}
	cfg = cfg.withDefaults()
	sp := obs.StartSpan("mine/build_sharded")
	defer sp.End()
	b := &shardedBuilder{
		src:      src,
		cfg:      cfg,
		workers:  parallel.ResolveWorkers(cfg.Workers),
		nAttrs:   schema.NumAttrs(),
		nClasses: len(schema.ClassNames),
		flipped:  make([]bool, schema.NumAttrs()),
	}
	root, err := b.build()
	if err != nil {
		return nil, err
	}
	if cfg.Orientation == OrientationCanonical {
		unflip(root, b.flipped)
	}
	if obs.Enabled() {
		obs.Add("tree.builds", 1)
		obs.Add("tree.nodes", b.numNodes)
		obs.Add("tree.leaves", b.numLeaves)
	}
	return &Tree{
		Root:       root,
		AttrNames:  append([]string(nil), schema.AttrNames...),
		ClassNames: append([]string(nil), schema.ClassNames...),
		Config:     cfg,
	}, nil
}

type shardedBuilder struct {
	src      *dataset.ShardedSource
	cfg      Config
	workers  int
	nAttrs   int
	nClasses int
	// flipped holds the canonical-orientation flags, decided from the
	// root-level groups; all false under OrientationRaw. Once set, every
	// scan reads flipped attributes negated, so the growing tree lives
	// in canonical orientation exactly like Build's view.
	flipped []bool

	// route is the partial tree flattened for routing rows: route[0] is
	// the root, and a split node's children sit at left and left+1.
	route []routeNode
	// scratch holds one scan buffer set per worker, reused by every
	// shard that worker scans at every level.
	scratch []scanScratch

	root                *Node
	numNodes, numLeaves int64
}

// routeNode is one node of the routing skeleton. A split node (left >
// 0) sends a row left when its canonically oriented value of attr is
// at most threshold; a terminal node (left == 0) names the row's
// frontier index at the current level, or -1 for a finished leaf.
type routeNode struct {
	attr      int
	threshold float64
	left      int
	frontier  int
}

// scanScratch is one worker's scan buffers (parallel scratch rule 3:
// every buffer is overwritten before it is read, and the class groups a
// scan emits are freshly allocated by runs.ClassScratch.Group).
type scanScratch struct {
	cols   [][]float64 // the shard's columns, flipped attributes negated
	labels []int       // the shard's labels
	node   []int       // row → frontier index, or -1
	perm   []int       // rows ordered by frontier node, stable
	start  []int       // frontier node fi's rows are perm[start[fi]:start[fi+1]]
	vals   []float64   // one node's values of one attribute
	labs   []int       // one node's labels
	groups runs.ClassScratch
}

// build grows the tree level by level: one scan of all shards per
// level computes every frontier node's class groups, then each node
// either becomes a leaf or splits, enqueueing its children for the
// next level.
func (b *shardedBuilder) build() (*Node, error) {
	b.root = &Node{}
	b.route = []routeNode{{frontier: 0}}
	b.scratch = make([]scanScratch, b.workers)
	frontier := []*Node{b.root}
	at := []int{0} // frontier node i's route index
	for dep := 0; len(frontier) > 0; dep++ {
		groups, err := b.scan(len(frontier))
		if err != nil {
			return nil, err
		}
		if dep == 0 && b.cfg.Orientation == OrientationCanonical {
			// The root groups were collected unflipped; decide each
			// attribute's orientation from them, then rewrite the
			// flipped attributes' groups in place — FlipClassGroups is
			// exactly the groups of the negated column — so the root
			// split search already runs in canonical orientation.
			for a := 0; a < b.nAttrs; a++ {
				if runs.DescendingClassStringLess(groups[0][a]) {
					b.flipped[a] = true
					runs.FlipClassGroups(groups[0][a])
				}
			}
		}
		var next []*Node
		var nextAt []int
		for fi, n := range frontier {
			counts := make([]int, b.nClasses)
			for _, g := range groups[fi][0] {
				for c, k := range g.Counts {
					counts[c] += k
				}
			}
			total := 0
			for _, c := range counts {
				total += c
			}
			b.numNodes++
			n.Counts = counts
			n.Class = argmax(counts)
			rn := &b.route[at[fi]]
			rn.frontier = -1
			if stopNode(b.cfg, counts, total, dep) {
				n.Leaf = true
				b.numLeaves++
				continue
			}
			best, ok := b.bestGroupSplit(groups[fi], counts, total)
			if !ok {
				n.Leaf = true
				b.numLeaves++
				continue
			}
			n.Attr = best.attr
			n.Threshold = best.nodeThreshold(b.flipped[best.attr])
			n.Left = &Node{}
			n.Right = &Node{}
			rn.attr, rn.threshold, rn.left = best.attr, best.threshold, len(b.route)
			b.route = append(b.route, routeNode{frontier: len(next)}, routeNode{frontier: len(next) + 1})
			nextAt = append(nextAt, len(b.route)-2, len(b.route)-1)
			next = append(next, n.Left, n.Right)
		}
		frontier, at = next, nextAt
	}
	return b.root, nil
}

// routeRow descends row r of the canonically oriented columns through
// the routing skeleton and returns the frontier index it reaches, or -1
// if it lands in a finished leaf.
func (b *shardedBuilder) routeRow(cols [][]float64, r int) int {
	n := &b.route[0]
	for n.left > 0 {
		if cols[n.attr][r] <= n.threshold {
			n = &b.route[n.left]
		} else {
			n = &b.route[n.left+1]
		}
	}
	return n.frontier
}

// scan is one level pass: it streams every shard, routes rows to the
// nf frontier nodes, reduces each shard to per-(node, attribute) class
// groups, and merges the per-shard groups in shard-index order. The
// returned groups[fi][a] are element-identical to GroupClasses over
// frontier node fi's full subset of attribute a (flipped attributes
// negated), which is what makes the split search byte-identical to the
// in-memory scan.
func (b *shardedBuilder) scan(nf int) ([][][]runs.ClassGroup, error) {
	nShards := b.src.NumShards()
	perShard := make([][][][]runs.ClassGroup, nShards) // [shard][node][attr]
	err := parallel.ForEachWorker(context.Background(), nShards, b.workers, func(w, si int) error {
		out, err := b.scanShard(&b.scratch[w], si, nf)
		perShard[si] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	// Merge per (node, attribute), each fold in shard-index order. The
	// merges are independent, so they fan out like the scan.
	merged := make([][][]runs.ClassGroup, nf)
	for fi := range merged {
		merged[fi] = make([][]runs.ClassGroup, b.nAttrs)
	}
	_ = parallel.ForEach(context.Background(), nf*b.nAttrs, b.workers, func(i int) error {
		fi, a := i/b.nAttrs, i%b.nAttrs
		sg := make([][]runs.ClassGroup, 0, nShards)
		for si := 0; si < nShards; si++ {
			if perShard[si][fi] == nil {
				continue
			}
			sg = append(sg, perShard[si][fi][a])
		}
		merged[fi][a] = runs.MergeClassGroups(sg)
		return nil
	})
	return merged, nil
}

// scanShard reduces shard si to its per-(node, attribute) class groups
// in sc's buffers: it reads the shard's columns (flipped attributes
// negated), routes every row, orders the rows by frontier node with a
// stable counting sort, and gathers each node's values attribute by
// attribute into one buffer for runs.ClassScratch.Group. out[fi] is nil
// for a node with no rows in the shard.
func (b *shardedBuilder) scanShard(sc *scanScratch, si, nf int) ([][][]runs.ClassGroup, error) {
	sh, err := b.src.Shard(si)
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	if sc.cols == nil {
		sc.cols = make([][]float64, b.nAttrs)
	}
	rows := b.src.ShardRows(si)
	for a := range sc.cols {
		sc.cols[a] = slices.Grow(sc.cols[a][:0], rows)
	}
	sc.labels = slices.Grow(sc.labels[:0], rows)
	for {
		blk, err := sh.Next(0)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		for a, col := range blk.Cols {
			base := len(sc.cols[a])
			sc.cols[a] = append(sc.cols[a], col...)
			if b.flipped[a] {
				for r := base; r < len(sc.cols[a]); r++ {
					sc.cols[a][r] = -sc.cols[a][r]
				}
			}
		}
		sc.labels = append(sc.labels, blk.Labels...)
	}

	n := len(sc.labels)
	sc.node = slices.Grow(sc.node[:0], n)[:n]
	sc.start = slices.Grow(sc.start[:0], nf+1)[:nf+1]
	clear(sc.start)
	for r := range sc.node {
		fi := b.routeRow(sc.cols, r)
		sc.node[r] = fi
		if fi >= 0 {
			sc.start[fi+1]++
		}
	}
	for fi := 0; fi < nf; fi++ {
		sc.start[fi+1] += sc.start[fi]
	}
	sc.perm = slices.Grow(sc.perm[:0], sc.start[nf])[:sc.start[nf]]
	fill := sc.start[:nf:nf] // advances to each node's end; restored below
	for r, fi := range sc.node {
		if fi >= 0 {
			sc.perm[fill[fi]] = r
			fill[fi]++
		}
	}
	copy(sc.start[1:], sc.start[:nf])
	sc.start[0] = 0

	out := make([][][]runs.ClassGroup, nf)
	for fi := range out {
		rs := sc.perm[sc.start[fi]:sc.start[fi+1]]
		if len(rs) == 0 {
			continue
		}
		sc.labs = slices.Grow(sc.labs[:0], len(rs))[:len(rs)]
		for k, r := range rs {
			sc.labs[k] = sc.labels[r]
		}
		sc.vals = slices.Grow(sc.vals[:0], len(rs))[:len(rs)]
		out[fi] = make([][]runs.ClassGroup, b.nAttrs)
		for a, col := range sc.cols {
			for k, r := range rs {
				sc.vals[k] = col[r]
			}
			out[fi][a] = sc.groups.Group(sc.vals, sc.labs, b.nClasses)
		}
	}
	return out, nil
}

// bestGroupSplit is Build's split search over class groups: every
// attribute's candidate search is independent, winners reduce in
// attribute order, and nodes with at least ParallelMinRows tuples scan
// their attributes concurrently — the selected split is identical at
// any worker count, and identical to the in-memory search.
func (b *shardedBuilder) bestGroupSplit(gs [][]runs.ClassGroup, counts []int, total int) (split, bool) {
	parentImp := b.cfg.Criterion.Impurity(counts, total)
	m := b.nAttrs
	if obs.Enabled() {
		obs.Add("tree.split_scans", int64(m))
	}
	scans := make([]splitScan, m)
	scan := func(a int) error {
		scans[a].init(&b.cfg, counts, total, parentImp)
		scans[a].groups(a, gs[a])
		return nil
	}
	if b.workers > 1 && total >= ParallelMinRows && m > 1 {
		_ = parallel.ForEach(context.Background(), m, b.workers, scan)
	} else {
		for a := 0; a < m; a++ {
			_ = scan(a)
		}
	}
	var best split
	found := false
	for a := range scans {
		if s := &scans[a]; s.found && (!found || s.best.better(&best, 1e-12)) {
			best = s.best
			found = true
		}
	}
	return best, found
}

// groups is Build's list scan expressed over class groups. Each group
// plays the role of one block of equal values in the (value, label)
// order: the minimum present label is the block's first-tuple label,
// one nonzero class means label-pure, and the left side advances by
// the group's histogram. Identical integer counts feed the shared
// boundary evaluation, so gains, thresholds and tie-break signatures
// come out bit-equal to the in-memory scan.
func (s *splitScan) groups(a int, groups []runs.ClassGroup) bool {
	s.start(a)
	for k, g := range groups {
		for c, n := range g.Counts {
			s.left[c] += n
			s.nLeft += n
		}
		if k == len(groups)-1 {
			break
		}
		label, pure := runs.LabelMono(g.Counts)
		nextLabel, nextPure := runs.LabelMono(groups[k+1].Counts)
		s.boundary(g.Value, groups[k+1].Value, label, pure, nextLabel, nextPure)
	}
	return s.found
}
