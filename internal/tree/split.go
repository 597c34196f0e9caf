package tree

import (
	"math"
	"slices"
)

// The split kernel both builders share: the candidate type, its
// mirror-invariant tie-breaking, and the Lemma-2 evaluation of one
// boundary between groups of equal values. Build feeds it from its
// attribute lists, BuildSharded from merged class-count groups; one
// implementation keeps the two bit-equal by construction.

// stopNode is the leaf decision shared by the in-memory and sharded
// builders: too small to split, at the depth limit, or label-pure.
func stopNode(cfg Config, counts []int, n, dep int) bool {
	if n < 2*cfg.MinLeaf {
		return true
	}
	if cfg.MaxDepth > 0 && dep >= cfg.MaxDepth {
		return true
	}
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1 // pure node
}

// split describes a candidate split and its tie-breaking features.
type split struct {
	attr      int
	threshold float64 // rows with value <= threshold go low
	mirror    float64 // the threshold's counterpart under negation
	multiway  bool
	cats      []int // category codes (ascending) of a multiway split
	gain      float64
	sig       []int // canonical child-distribution signature
	boundary  int   // index of the boundary in value order
}

// The signature stores the unordered multiset of child class-count
// vectors in canonical (lexicographically sorted) order. The multiset
// is invariant both under anti-monotone mirroring of a numeric
// attribute (which swaps the two children) and under permutation
// encoding of a categorical attribute (which reorders the branches), so
// tie-breaking on it keeps split selection consistent between a data
// set and its encoding.

// binarySignature appends the signature of a binary split to dst.
func binarySignature(dst, left, right []int) []int {
	if lexLess(right, left) {
		left, right = right, left
	}
	return append(append(dst, left...), right...)
}

// multiwaySignature appends the signature of a multiway split to dst,
// reordering branches in place.
func multiwaySignature(dst []int, branches [][]int) []int {
	slices.SortFunc(branches, slices.Compare[[]int])
	for _, b := range branches {
		dst = append(dst, b...)
	}
	return dst
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// splitThreshold returns the threshold of the boundary between
// adjacent groups with values v < next: the midpoint when it separates
// them, v <= mid < next, and v otherwise. Rows route by value <=
// threshold, and the midpoint falls outside [v, next) when it rounds
// onto next (adjacent floats), overflows to ±Inf, or is NaN (v = -Inf,
// next = +Inf); at or above next both groups would go low, and the low
// child would split the same rows again without end. A zero v comes
// back as +0.0: -0.0 and +0.0 are one group, and the builders see its
// value with either sign.
func splitThreshold(v, next float64) float64 {
	if mid := (v + next) / 2; v <= mid && mid < next {
		return mid
	}
	if v == 0 {
		return 0
	}
	return v
}

// nodeThreshold returns the threshold a tree node keeps for s. On an
// attribute canonical orientation negated, unflip negates the node's
// threshold, and the mined boundary between v and next becomes the
// boundary between -next and -v, so the node keeps the mirror:
// -splitThreshold(-next, -v). Rounding is symmetric under negation, so
// the mirror equals the threshold whenever the midpoint separates; it
// differs only where the fallback picked v, which -v would send to the
// wrong side.
func (s *split) nodeThreshold(flipped bool) float64 {
	if flipped {
		return s.mirror
	}
	return s.threshold
}

// better reports whether s should be preferred over t under the
// deterministic tie-breaking order: higher gain, then lower attribute
// index, then the canonical child-distribution signature (mirror
// invariant), then lower boundary index as the final arbitrary choice.
func (s *split) better(t *split, eps float64) bool {
	if s.gain > t.gain+eps {
		return true
	}
	if s.gain < t.gain-eps {
		return false
	}
	if s.attr != t.attr {
		return s.attr < t.attr
	}
	if len(s.sig) != len(t.sig) {
		return len(s.sig) < len(t.sig)
	}
	if lexLess(s.sig, t.sig) {
		return true
	}
	if lexLess(t.sig, s.sig) {
		return false
	}
	return s.boundary < t.boundary
}

// keep copies c into s through s's own signature and category
// buffers, so the kept split outlives the scratch c was found in.
func (s *split) keep(c *split) {
	sig, cats := s.sig, s.cats
	*s = *c
	s.sig = append(sig[:0], c.sig...)
	s.cats = append(cats[:0], c.cats...)
}

// splitScan is one node's Lemma-2 split search over one attribute at a
// time. The caller walks the attribute's groups of equal values in
// ascending value order, adds each group's class counts to left and
// nLeft, and calls boundary between consecutive groups; best holds the
// attribute's winner. The buffers are reused from attribute to
// attribute and node to node, so a scan allocates nothing once warm.
type splitScan struct {
	cfg       *Config
	counts    []int // the node's class counts
	total     int   // the node's tuple count
	parentImp float64

	attr        int
	left, right []int // class counts below and above the boundary
	nLeft       int   // tuples below the boundary
	boundaries  int   // boundaries passed so far
	best        split
	found       bool
	sig         []int // the signature buffer of the candidate under test
}

// init points the scan at a node.
func (s *splitScan) init(cfg *Config, counts []int, total int, parentImp float64) {
	s.cfg, s.counts, s.total, s.parentImp = cfg, counts, total, parentImp
	s.left = slices.Grow(s.left[:0], len(counts))[:len(counts)]
	s.right = slices.Grow(s.right[:0], len(counts))[:len(counts)]
}

// start begins the scan of attribute a.
func (s *splitScan) start(a int) {
	s.attr = a
	clear(s.left)
	s.nLeft, s.boundaries, s.found = 0, 0, false
}

// boundary evaluates the boundary between the group just added to the
// left side — value v, first label in (value, label) order, label
// purity — and the next group. Both builders call it once per
// boundary, so they skip, score and tie-break identically.
func (s *splitScan) boundary(v, next float64, label int, pure bool, nextLabel int, nextPure bool) {
	s.boundaries++
	nLeft, nRight, total := s.nLeft, s.total-s.nLeft, s.total
	if nLeft < s.cfg.MinLeaf || nRight < s.cfg.MinLeaf {
		return
	}
	if v != v || next != next {
		return // a NaN neighbour: no threshold separates the groups
	}
	// Lemma 2: a boundary strictly inside a label run — both adjacent
	// groups pure with the same label — can never be optimal, so skip
	// it (unless benchmarking the full scan).
	if !s.cfg.FullSplitScan && pure && nextPure && label == nextLabel {
		return
	}
	for c, n := range s.counts {
		s.right[c] = n - s.left[c]
	}
	crit := s.cfg.Criterion
	imp := float64(nLeft)/float64(total)*crit.Impurity(s.left, nLeft) +
		float64(nRight)/float64(total)*crit.Impurity(s.right, nRight)
	gain := s.parentImp - imp
	if crit == GainRatio {
		si := splitInfo(nLeft, nRight, total)
		if si <= 0 {
			return
		}
		gain /= si
	}
	if gain < s.cfg.MinGain {
		return
	}
	// The signature is only needed for tie comparisons; skip it when
	// the candidate is not competitive.
	if s.found && !(gain >= s.best.gain-1e-12) {
		return
	}
	cand := split{
		attr:      s.attr,
		threshold: splitThreshold(v, next),
		mirror:    -splitThreshold(-next, -v),
		gain:      gain,
		boundary:  s.boundaries,
		sig:       binarySignature(s.sig[:0], s.left, s.right),
	}
	if s.found && !cand.better(&s.best, 1e-12) {
		s.sig = cand.sig // keep the grown buffer
		return
	}
	// The loser's signature buffer becomes the next candidate's.
	s.sig = s.best.sig
	s.best = cand
	s.found = true
}

// splitInfo is C4.5's split information for a binary partition.
func splitInfo(nLeft, nRight, total int) float64 {
	return splitInfoSizes([]int{nLeft, nRight}, total)
}

// splitInfoSizes is C4.5's split information: the entropy of arbitrary
// partition sizes.
func splitInfoSizes(sizes []int, total int) float64 {
	si := 0.0
	for _, n := range sizes {
		if n == 0 {
			continue
		}
		p := float64(n) / float64(total)
		si -= p * math.Log2(p)
	}
	return si
}

func argmax(counts []int) int {
	best, bi := -1, 0
	for i, c := range counts {
		if c > best {
			best, bi = c, i
		}
	}
	return bi
}
