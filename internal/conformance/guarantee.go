package conformance

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"privtree/internal/dataset"
	"privtree/internal/transform"
	"privtree/internal/tree"
)

// roundTripTolFrac scales the decode∘encode round-trip tolerance per
// attribute: an encoded value must invert to within this fraction of
// the attribute's dynamic-range width of its original. Permutation
// pieces are table lookups and round-trip exactly; (anti-)monotone
// pieces go through Shape.Eval/Invert and accumulate floating-point
// error proportional to the ranges involved. Shapes with a flat
// endpoint (e.g. power with large gamma) condition worse than any
// linear tolerance — the inversion error there grows like
// range·ulp^(1/gamma) — so a value that misses the tolerance still
// passes if it snaps back uniquely: the original must be the strictly
// nearest distinct data value to the decoded one, which is exactly the
// recovery the custodian needs for input identity on the relation.
const roundTripTolFrac = 1e-6

// CheckGuarantee runs the differential verification of Theorems 1–2
// for a concrete key: encode d under key, mine both relations with
// cfg, decode the encoded tree with the custodian's key and data, and
// require
//
//   - node-by-node equivalence between the decoded tree and the tree
//     mined directly from d (tree.DivergenceOn — the exact S = T sense
//     of Theorem 2), and
//   - decode∘encode round-trip identity on the data itself: every
//     encoded value inverts back to its original (exactly for
//     permutation pieces, within a range-scaled tolerance for
//     function pieces).
//
// It assumes the key is structurally sound; run CheckKey first (Verify
// and SelfTest do) so a broken key surfaces as the invariant it
// violates rather than as a downstream tree mismatch.
func CheckGuarantee(d *dataset.Dataset, key *transform.Key, cfg tree.Config) *Report {
	rep := &Report{}
	rep.ran(CheckRoundTrip)
	rep.ran(CheckTree)
	enc, err := key.Apply(d)
	if err != nil {
		rep.add(newViolation(CheckRoundTrip, "", fmt.Sprintf("key does not apply: %v", err)))
		return rep
	}
	checkRoundTrip(rep, d, enc, key)

	mined, err := tree.Build(enc, cfg)
	if err != nil {
		rep.add(newViolation(CheckTree, "", fmt.Sprintf("mining the encoded data failed: %v", err)))
		return rep
	}
	_, diff, err := tree.DecodeAndCompare(mined, key, d, cfg)
	if err != nil {
		rep.add(newViolation(CheckTree, "", err.Error()))
		return rep
	}
	if diff != "" {
		v := newViolation(CheckTree, "", "decoded tree differs from direct mining at "+diff)
		if attr := divergentAttr(diff, d); attr != "" {
			v.Attr = attr
		}
		rep.add(v)
	}
	return rep
}

// Verify is the conformance battery for a concrete key, as `privtree
// verify` and privtreed's /v1/verify run it: CheckKey, then, when
// guarantee is set, CheckGuarantee — but only if the key is
// structurally sound. A broken key would surface every downstream tree
// mismatch too; stopping at the structure keeps the report on the root
// cause.
func Verify(d *dataset.Dataset, key *transform.Key, cfg tree.Config, guarantee bool) *Report {
	rep := CheckKey(d, key)
	if guarantee && rep.Ok() {
		rep.Merge(CheckGuarantee(d, key, cfg))
	}
	return rep
}

// checkRoundTrip verifies decode∘encode identity value by value,
// naming the offending attribute and piece.
func checkRoundTrip(rep *Report, d, enc *dataset.Dataset, key *transform.Key) {
	for a, ak := range key.Attrs {
		if ak.Categorical {
			// A code permutation must invert exactly.
			for i, v := range d.Cols[a] {
				if back := ak.Invert(enc.Cols[a][i]); back != v {
					rep.add(newPieceViolation(CheckRoundTrip, ak.Attr, 0,
						fmt.Sprintf("code %v encodes to %v but decodes to %v", v, enc.Cols[a][i], back)))
					break
				}
			}
			continue
		}
		lo, hi := ak.DomRange()
		tol := roundTripTolFrac * math.Max(1, hi-lo)
		distinct := sortedDistinct(d.Cols[a])
		for i, v := range d.Cols[a] {
			back := ak.Invert(enc.Cols[a][i])
			if math.Abs(back-v) <= tol || snapsTo(distinct, back, v) {
				continue
			}
			piece := -1
			if pi, inside := ak.PieceIndex(v); inside {
				piece = pi
			}
			rep.add(&Violation{Check: CheckRoundTrip, Attr: ak.Attr, Piece: piece, Trial: -1,
				Detail: fmt.Sprintf("value %v encodes to %v but decodes to %v (tolerance %v)",
					v, enc.Cols[a][i], back, tol)})
			break // one witness per attribute keeps the report readable
		}
	}
}

// sortedDistinct returns the sorted distinct values of a column.
func sortedDistinct(col []float64) []float64 {
	vals := append([]float64(nil), col...)
	sort.Float64s(vals)
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// snapsTo reports whether v is the strictly nearest value to back among
// the attribute's distinct data values — i.e. snapping the decoded
// value to the value universe recovers the original exactly.
func snapsTo(distinct []float64, back, v float64) bool {
	j := sort.SearchFloat64s(distinct, back)
	best, bestD := math.NaN(), math.Inf(1)
	unique := false
	for _, c := range []int{j - 1, j} {
		if c < 0 || c >= len(distinct) {
			continue
		}
		d := math.Abs(distinct[c] - back)
		switch {
		case d < bestD:
			best, bestD, unique = distinct[c], d, true
		case d == bestD && distinct[c] != best:
			unique = false
		}
	}
	return unique && best == v
}

// divergentAttr extracts the attribute name from a tree divergence that
// names a split attribute, so the violation is attributable.
func divergentAttr(diff string, d *dataset.Dataset) string {
	i := strings.LastIndex(diff, "attribute-")
	if i < 0 {
		return ""
	}
	var a int
	if _, err := fmt.Sscanf(diff[i:], "attribute-%d", &a); err == nil && a >= 0 && a < d.NumAttrs() {
		return d.AttrNames[a]
	}
	return ""
}
