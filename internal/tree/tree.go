// Package tree implements from-scratch decision-tree induction with the
// gini-index and entropy split criteria — the two criteria for which the
// paper proves the no-outcome-change guarantee (Section 4) — plus the
// path extraction, structural comparison, and key-based decoding needed
// by the privacy experiments.
//
// The split search exploits Lemma 2: the optimal split point for either
// criterion never falls inside a label run, so only boundaries between
// label runs are evaluated.
package tree

import (
	"fmt"
	"math"
)

// Criterion selects the impurity measure used for split selection.
type Criterion int

const (
	// Gini selects the gini index.
	Gini Criterion = iota
	// Entropy selects information gain (Shannon entropy).
	Entropy
	// GainRatio selects C4.5's gain ratio: information gain normalized
	// by the split information. Like gini and entropy it depends only
	// on class counts, so the no-outcome-change guarantee carries over
	// (the optimal gain-ratio split also lies on a label-run boundary:
	// moving a boundary inside a run changes neither child distribution
	// ordering in a way that could improve entropy gain, per Lemma 2,
	// and split information is count-based).
	GainRatio
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case Entropy:
		return "entropy"
	case GainRatio:
		return "gainratio"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// ParseCriterion returns the criterion named s, "gini" or "entropy":
// the two for which the paper proves the no-outcome-change guarantee,
// and so the two the custodian's tools accept. Any other name fails
// with ErrUnknownCriterion.
func ParseCriterion(s string) (Criterion, error) {
	for _, c := range []Criterion{Gini, Entropy} {
		if s == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("criterion %q (gini, entropy): %w", s, ErrUnknownCriterion)
}

// Impurity computes the criterion value of a class-count vector.
func (c Criterion) Impurity(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	switch c {
	case Entropy, GainRatio:
		h := 0.0
		for _, n := range counts {
			if n == 0 {
				continue
			}
			p := float64(n) / float64(total)
			h -= p * math.Log2(p)
		}
		return h
	default: // Gini
		g := 1.0
		for _, n := range counts {
			p := float64(n) / float64(total)
			g -= p * p
		}
		return g
	}
}

// Orientation controls whether the miner canonicalizes attribute
// orientation before inducing the tree.
type Orientation int

const (
	// OrientationCanonical (the default) re-orients each attribute
	// internally so that its class string is lexicographically minimal
	// between the ascending and descending readings. Mining then treats
	// a data set and its anti-monotone encoding identically, which makes
	// the no-outcome-change guarantee hold for the global-anti-monotone
	// invariant as well: equal-gain mirror-symmetric splits — which no
	// orientation-sensitive tie-break can resolve consistently — are
	// broken in the shared canonical orientation. The emitted tree is
	// expressed in the data's own orientation.
	OrientationCanonical Orientation = iota
	// OrientationRaw mines the data exactly as given. The
	// no-outcome-change guarantee then holds for monotone encodings and
	// for anti-monotone encodings whose optimal splits are unique.
	OrientationRaw
)

// Config controls tree induction.
type Config struct {
	// Criterion is the split selection measure. Default Gini.
	Criterion Criterion
	// MaxDepth limits the tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of tuples in a leaf. Default 1.
	MinLeaf int
	// MinGain is the minimum impurity improvement required to split.
	// Default 1e-12 (reject numerically-zero gains).
	MinGain float64
	// Orientation selects canonical (default) or raw attribute
	// orientation; see the Orientation constants.
	Orientation Orientation
	// FullSplitScan disables the Lemma 2 optimization and evaluates
	// every distinct-value boundary instead of only label-run
	// boundaries. The mined tree is identical (Lemma 2 proves the
	// optimum lies on a run boundary); the flag exists to benchmark the
	// optimization.
	FullSplitScan bool
	// Workers bounds the goroutines a build runs on. Build sorts its
	// attributes concurrently and hands subtrees of at least
	// ParallelMinRows tuples to further goroutines, at most Workers at
	// once; BuildSharded scans shards, and the attributes of nodes with
	// at least ParallelMinRows tuples, concurrently. 0 resolves through
	// PRIVTREE_WORKERS and then GOMAXPROCS; 1 forces a fully serial
	// build. Every subtree and every split is a function of its tuples
	// alone, so the mined tree is identical at any setting.
	Workers int
}

// ParallelMinRows is the node size from which Config.Workers > 1 puts
// work on another goroutine: Build's subtree of a child node, and
// BuildSharded's per-attribute split search. Smaller nodes stay on
// their goroutine, where the hand-off would cost more than it saves.
const ParallelMinRows = 2048

func (c Config) withDefaults() Config {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MinGain <= 0 {
		c.MinGain = 1e-12
	}
	return c
}

// Node is one decision-tree node. Numeric internal nodes route tuples
// with value <= Threshold on attribute Attr to Left and the rest to
// Right. Categorical internal nodes (Multiway true) route by category
// code: the tuple's code is looked up in Cats and the tuple descends
// into the matching branch; unseen codes predict the node's majority
// class.
type Node struct {
	// Leaf marks terminal nodes.
	Leaf bool
	// Class is the majority class at the node (prediction for leaves).
	Class int
	// Counts is the class distribution of the training tuples reaching
	// the node.
	Counts []int
	// Attr and Threshold define the split of numeric internal nodes.
	Attr      int
	Threshold float64
	// Left and Right are the children of numeric internal nodes.
	Left, Right *Node
	// Multiway marks a categorical split; Cats holds the category codes
	// (ascending) and Branches the matching subtrees.
	Multiway bool
	Cats     []int
	Branches []*Node
}

// Tree is a trained decision tree plus the schema it was mined from.
type Tree struct {
	Root       *Node
	AttrNames  []string
	ClassNames []string
	Config     Config
}

// Predict returns the predicted class index for a tuple of attribute
// values.
func (t *Tree) Predict(vals []float64) int {
	n := t.Root
	for !n.Leaf {
		if n.Multiway {
			code := int(vals[n.Attr])
			next := (*Node)(nil)
			for i, c := range n.Cats {
				if c == code {
					next = n.Branches[i]
					break
				}
			}
			if next == nil {
				return n.Class // unseen category: majority class
			}
			n = next
			continue
		}
		if vals[n.Attr] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// NumNodes returns the total number of nodes.
func (t *Tree) NumNodes() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	total := 1
	for _, c := range children(n) {
		total += countNodes(c)
	}
	return total
}

// children returns the child nodes of an internal node, regardless of
// split arity.
func children(n *Node) []*Node {
	if n.Multiway {
		return n.Branches
	}
	return []*Node{n.Left, n.Right}
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	total := 0
	for _, c := range children(n) {
		total += countLeaves(c)
	}
	return total
}

// Depth returns the maximum root-to-leaf edge count.
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	best := 0
	for _, c := range children(n) {
		if d := depth(c); d > best {
			best = d
		}
	}
	return best + 1
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{
		Root:       cloneNode(t.Root),
		AttrNames:  append([]string(nil), t.AttrNames...),
		ClassNames: append([]string(nil), t.ClassNames...),
		Config:     t.Config,
	}
}

func cloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Counts = append([]int(nil), n.Counts...)
	c.Left = cloneNode(n.Left)
	c.Right = cloneNode(n.Right)
	if n.Multiway {
		c.Cats = append([]int(nil), n.Cats...)
		c.Branches = make([]*Node, len(n.Branches))
		for i, b := range n.Branches {
			c.Branches[i] = cloneNode(b)
		}
	}
	return &c
}
