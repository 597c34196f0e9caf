package tree

import (
	"math"
	"sort"

	"fmt"
	"privtree/internal/dataset"

	"privtree/internal/transform"
)

// Decode translates a tree T' mined from transformed data back into the
// original attribute space using the custodian's key, per Theorem 2:
// every node condition A θ ν' becomes A θ f_A^{-1}(ν'). For attributes
// encoded under the global-anti-monotone invariant, "x' <= ν'" in the
// transformed space corresponds to "x >= f^{-1}(ν')" in the original
// space, so the children of such nodes are swapped; the decoded
// threshold lies strictly inside a domain gap, making <= and >= route
// the active domain identically.
func Decode(t *Tree, key *transform.Key) (*Tree, error) {
	if len(key.Attrs) != len(t.AttrNames) {
		return nil, fmt.Errorf("tree: key has %d attributes, tree has %d: %w", len(key.Attrs), len(t.AttrNames), transform.ErrKeyMismatch)
	}
	out := t.Clone()
	decodeNode(out.Root, key)
	return out, nil
}

func decodeNode(n *Node, key *transform.Key) {
	if n == nil || n.Leaf {
		return
	}
	ak := key.Attrs[n.Attr]
	if n.Multiway {
		decodeMultiway(n, ak)
		for _, br := range n.Branches {
			decodeNode(br, key)
		}
		return
	}
	n.Threshold = ak.Invert(n.Threshold)
	if ak.Anti {
		n.Left, n.Right = n.Right, n.Left
	}
	decodeNode(n.Left, key)
	decodeNode(n.Right, key)
}

// decodeMultiway maps a categorical node's branch codes back through the
// code permutation and restores ascending code order.
func decodeMultiway(n *Node, ak *transform.AttributeKey) {
	type branch struct {
		code int
		node *Node
	}
	bs := make([]branch, len(n.Cats))
	for i, c := range n.Cats {
		bs[i] = branch{code: int(ak.Invert(float64(c))), node: n.Branches[i]}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].code < bs[j].code })
	for i, b := range bs {
		n.Cats[i] = b.code
		n.Branches[i] = b.node
	}
}

// DecodeWithData decodes T' exactly, using the original training data the
// custodian holds. Pure function inversion (Decode) is exact except in
// one corner: when a split threshold lands inside the output interval of
// a locally order-reversing piece — a permutation-encoded monochromatic
// piece or a per-piece anti-monotone function inside a monotone key —
// f^{-1} alone cannot tell which side of the reshuffled values a
// deep-node threshold belongs to. The custodian resolves it the way
// Theorem 2 intends: route the original tuples through T' via f, observe
// which tuples the split sends left, and set the decoded threshold in
// the gap between the two sides in the original domain, by the rule the
// miner picks thresholds with (splitThreshold) — precisely the threshold
// the miner would have chosen on D.
func DecodeWithData(t *Tree, key *transform.Key, d *dataset.Dataset) (*Tree, error) {
	if len(key.Attrs) != len(t.AttrNames) {
		return nil, fmt.Errorf("tree: key has %d attributes, tree has %d: %w", len(key.Attrs), len(t.AttrNames), transform.ErrKeyMismatch)
	}
	if d.NumAttrs() != len(t.AttrNames) {
		return nil, fmt.Errorf("tree: data has %d attributes, tree has %d: %w", d.NumAttrs(), len(t.AttrNames), transform.ErrKeyMismatch)
	}
	out := t.Clone()
	idx := make([]int, d.NumTuples())
	for i := range idx {
		idx[i] = i
	}
	if err := decodeNodeWithData(out.Root, key, d, idx); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeAndCompare is the custodian's check of Theorem 2: it decodes
// mined, a tree mined under cfg from data encoded with key, with the
// original data orig (DecodeWithData), mines orig directly under cfg,
// and returns the decoded tree together with where it diverges from
// the direct one — "" when the two are equivalent on orig, the sense of
// EquivalentOn; otherwise DivergenceOn's description. An error names
// the step that failed.
func DecodeAndCompare(mined *Tree, key *transform.Key, orig *dataset.Dataset, cfg Config) (decoded *Tree, divergence string, err error) {
	if decoded, err = DecodeWithData(mined, key, orig); err != nil {
		return nil, "", fmt.Errorf("decoding the mined tree failed: %w", err)
	}
	direct, err := Build(orig, cfg)
	if err != nil {
		return nil, "", fmt.Errorf("mining the original data failed: %w", err)
	}
	return decoded, DivergenceOn(direct, decoded, orig), nil
}

func decodeNodeWithData(n *Node, key *transform.Key, d *dataset.Dataset, idx []int) error {
	if n == nil || n.Leaf {
		return nil
	}
	ak := key.Attrs[n.Attr]
	col := d.Cols[n.Attr]
	if n.Multiway {
		// Categorical decode needs no data: the code permutation is
		// exactly invertible.
		decodeMultiway(n, ak)
		pos := make(map[int]int, len(n.Cats))
		for i, c := range n.Cats {
			pos[c] = i
		}
		parts := make([][]int, len(n.Cats))
		for _, i := range idx {
			if p, ok := pos[int(col[i])]; ok {
				parts[p] = append(parts[p], i)
			}
		}
		for i, br := range n.Branches {
			if err := decodeNodeWithData(br, key, d, parts[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// Partition the subset by the transformed-space condition f(v) <= y.
	var enc, rest []int // enc: tuples routed to T' left child
	for _, i := range idx {
		if ak.Apply(col[i]) <= n.Threshold {
			enc = append(enc, i)
		} else {
			rest = append(rest, i)
		}
	}
	if len(enc) == 0 || len(rest) == 0 {
		// The subset does not straddle this split (possible only if the
		// tree was mined from different data); fall back to inversion.
		n.Threshold = ak.Invert(n.Threshold)
		if ak.Anti {
			n.Left, n.Right = n.Right, n.Left
		}
	} else {
		// In the original domain the two sides are cleanly separated at
		// piece granularity: low side strictly below high side.
		low, high := enc, rest
		if ak.Anti {
			low, high = rest, enc
		}
		maxLow := math.Inf(-1)
		for _, i := range low {
			if col[i] > maxLow {
				maxLow = col[i]
			}
		}
		minHigh := math.Inf(1)
		for _, i := range high {
			if col[i] < minHigh {
				minHigh = col[i]
			}
		}
		if maxLow >= minHigh {
			return fmt.Errorf("tree: split on %s does not separate the original domain (max low %v >= min high %v)",
				attrNameOf(d, n.Attr), maxLow, minHigh)
		}
		n.Threshold = splitThreshold(maxLow, minHigh)
		if ak.Anti {
			n.Left, n.Right = n.Right, n.Left
		}
	}
	// After the potential child swap, n.Left receives the original-low
	// tuples.
	var li, ri []int
	for _, i := range idx {
		if col[i] <= n.Threshold {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if err := decodeNodeWithData(n.Left, key, d, li); err != nil {
		return err
	}
	return decodeNodeWithData(n.Right, key, d, ri)
}

func attrNameOf(d *dataset.Dataset, a int) string {
	if a >= 0 && a < len(d.AttrNames) {
		return d.AttrNames[a]
	}
	return fmt.Sprintf("attr%d", a)
}
