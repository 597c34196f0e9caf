package conformance

import (
	"fmt"
	"math"

	"privtree/internal/dataset"
	"privtree/internal/pipeline"
	"privtree/internal/runs"
	"privtree/internal/transform"
)

// CheckKey verifies the structural invariants a key must satisfy for
// the no-outcome-change guarantee to hold on the data set d:
//
//   - structure: every piece is well-formed (CheckStructure);
//   - global monotonicity: the stitched pieces obey Definition 8's
//     global-(anti-)monotone invariant (CheckMonotone);
//   - breakpoint validity: the pieces tile d's active domain, each
//     anchored on actual data values (CheckBreakpoints);
//   - bijectivity: permutation pieces bijectively map exactly their
//     distinct data values and are monochromatic (CheckBijection);
//   - class strings and label runs: the encoded relation preserves
//     every attribute's class string — reversed under the
//     anti-monotone invariant — and its label-run profile
//     (CheckClassString, CheckLabelRuns).
//
// All violations are collected (not first-failure), so a corrupted key
// reports every broken attribute and piece in one pass.
func CheckKey(d *dataset.Dataset, key *transform.Key) *Report {
	rep := &Report{}
	rep.ran(CheckStructure)
	if len(key.Attrs) != d.NumAttrs() {
		rep.add(newViolation(CheckStructure, "",
			fmt.Sprintf("key has %d attributes, dataset has %d", len(key.Attrs), d.NumAttrs())))
		return rep
	}
	for a, ak := range key.Attrs {
		if ak == nil {
			rep.add(newViolation(CheckStructure, d.AttrNames[a], "attribute key is nil"))
			continue
		}
		if ak.Categorical != d.IsCategorical(a) {
			rep.add(newViolation(CheckStructure, ak.Attr,
				fmt.Sprintf("key categorical=%v but dataset categorical=%v", ak.Categorical, d.IsCategorical(a))))
			continue
		}
		if ak.Categorical {
			checkCategoricalKey(rep, d, a, ak)
			continue
		}
		ok := checkPieceStructure(rep, ak)
		checkGlobalMonotone(rep, ak)
		if ok {
			groups := runs.AttrGroups(d, a)
			checkBreakpoints(rep, ak, groups)
			checkBijection(rep, ak, groups)
		}
	}
	if rep.Ok() {
		checkClassStrings(rep, d, key)
	}
	return rep
}

// checkPieceStructure validates per-piece well-formedness and reports
// whether the attribute's pieces are sound enough for the data-driven
// checks to run.
func checkPieceStructure(rep *Report, ak *transform.AttributeKey) bool {
	rep.ran(CheckStructure)
	if len(ak.Pieces) == 0 {
		rep.add(newViolation(CheckStructure, ak.Attr, "attribute key has no pieces"))
		return false
	}
	ok := true
	for i, p := range ak.Pieces {
		if p == nil {
			rep.add(newPieceViolation(CheckStructure, ak.Attr, i, "piece is nil"))
			ok = false
			continue
		}
		if math.IsNaN(p.DomLo) || math.IsNaN(p.DomHi) || math.IsNaN(p.OutLo) || math.IsNaN(p.OutHi) {
			rep.add(newPieceViolation(CheckStructure, ak.Attr, i, "NaN interval bound"))
			ok = false
		}
		if p.DomHi < p.DomLo {
			rep.add(newPieceViolation(CheckStructure, ak.Attr, i,
				fmt.Sprintf("empty domain interval [%v,%v]", p.DomLo, p.DomHi)))
			ok = false
		}
		if p.OutHi < p.OutLo {
			rep.add(newPieceViolation(CheckStructure, ak.Attr, i,
				fmt.Sprintf("empty output interval [%v,%v]", p.OutLo, p.OutHi)))
			ok = false
		}
		if p.Kind == transform.KindPermutation {
			if len(p.DomVals) == 0 || len(p.DomVals) != len(p.OutVals) {
				rep.add(newPieceViolation(CheckStructure, ak.Attr, i,
					fmt.Sprintf("permutation table has %d domain vs %d output values", len(p.DomVals), len(p.OutVals))))
				ok = false
			}
		}
	}
	return ok
}

// checkGlobalMonotone validates Definition 8: domain pieces strictly
// ascending, output intervals pairwise disjoint and ordered — ascending
// under the monotone invariant, descending under the anti-monotone one.
func checkGlobalMonotone(rep *Report, ak *transform.AttributeKey) {
	rep.ran(CheckMonotone)
	for i := 1; i < len(ak.Pieces); i++ {
		prev, p := ak.Pieces[i-1], ak.Pieces[i]
		if prev == nil || p == nil {
			continue
		}
		if p.DomLo <= prev.DomHi {
			rep.add(newPieceViolation(CheckMonotone, ak.Attr, i,
				fmt.Sprintf("domain [%v,%v] not after previous piece's [%v,%v]",
					p.DomLo, p.DomHi, prev.DomLo, prev.DomHi)))
		}
		if ak.Anti {
			if p.OutHi >= prev.OutLo {
				rep.add(newPieceViolation(CheckMonotone, ak.Attr, i,
					fmt.Sprintf("output [%v,%v] not below previous piece's [%v,%v] (anti-monotone invariant)",
						p.OutLo, p.OutHi, prev.OutLo, prev.OutHi)))
			}
		} else if p.OutLo <= prev.OutHi {
			rep.add(newPieceViolation(CheckMonotone, ak.Attr, i,
				fmt.Sprintf("output [%v,%v] not above previous piece's [%v,%v] (monotone invariant)",
					p.OutLo, p.OutHi, prev.OutLo, prev.OutHi)))
		}
	}
}

// checkBreakpoints validates that the pieces tile the attribute's
// active domain: every distinct data value falls inside a piece, every
// piece covers at least one data value, and piece boundaries are
// anchored on actual data values (the breakpoints of Figures 5–6 are
// always chosen among the distinct values).
func checkBreakpoints(rep *Report, ak *transform.AttributeKey, groups []runs.ValueGroup) {
	rep.ran(CheckBreakpoints)
	covered := make([]int, len(ak.Pieces))
	uncovered := 0
	for _, g := range groups {
		i, inside := ak.PieceIndex(g.Value)
		if !inside {
			// Three witnesses per attribute; a grossly broken key would
			// otherwise flood the report with every distinct value.
			if uncovered++; uncovered <= 3 {
				rep.add(newViolation(CheckBreakpoints, ak.Attr,
					fmt.Sprintf("data value %v falls in no piece", g.Value)))
			}
			continue
		}
		covered[i]++
	}
	if uncovered > 3 {
		rep.add(newViolation(CheckBreakpoints, ak.Attr,
			fmt.Sprintf("… and %d more uncovered data values", uncovered-3)))
	}
	gi := 0
	for i, p := range ak.Pieces {
		if covered[i] == 0 {
			rep.add(newPieceViolation(CheckBreakpoints, ak.Attr, i,
				fmt.Sprintf("piece [%v,%v] covers no data value", p.DomLo, p.DomHi)))
			continue
		}
		// The covered group range is contiguous because groups are
		// sorted and pieces are ordered/disjoint.
		for gi < len(groups) && groups[gi].Value < p.DomLo {
			gi++
		}
		first := gi
		for gi < len(groups) && groups[gi].Value <= p.DomHi {
			gi++
		}
		last := gi - 1
		if first > last {
			continue // already reported as uncovered values
		}
		if groups[first].Value != p.DomLo || groups[last].Value != p.DomHi {
			rep.add(newPieceViolation(CheckBreakpoints, ak.Attr, i,
				fmt.Sprintf("piece [%v,%v] not anchored on data values (covers %v..%v)",
					p.DomLo, p.DomHi, groups[first].Value, groups[last].Value)))
		}
	}
}

// checkBijection validates the F_bi discipline (Section 5.2): a
// permutation piece must bijectively map exactly the distinct data
// values it covers onto pairwise-distinct outputs inside its interval,
// and the piece must be monochromatic — every covered value carries the
// same single class label (Definition 9) — or an arbitrary bijection
// would scramble the class string.
func checkBijection(rep *Report, ak *transform.AttributeKey, groups []runs.ValueGroup) {
	rep.ran(CheckBijection)
	gi := 0
	for i, p := range ak.Pieces {
		for gi < len(groups) && groups[gi].Value < p.DomLo {
			gi++
		}
		first := gi
		for gi < len(groups) && groups[gi].Value <= p.DomHi {
			gi++
		}
		covered := groups[first:gi]
		if p.Kind != transform.KindPermutation {
			continue
		}
		if len(p.DomVals) != len(covered) {
			rep.add(newPieceViolation(CheckBijection, ak.Attr, i,
				fmt.Sprintf("permutation table has %d entries but the piece covers %d distinct values",
					len(p.DomVals), len(covered))))
			continue
		}
		for j, g := range covered {
			if p.DomVals[j] != g.Value {
				rep.add(newPieceViolation(CheckBijection, ak.Attr, i,
					fmt.Sprintf("table entry %d maps %v, data value is %v", j, p.DomVals[j], g.Value)))
				break
			}
		}
		seen := make(map[float64]bool, len(p.OutVals))
		for _, y := range p.OutVals {
			if y < p.OutLo || y > p.OutHi {
				rep.add(newPieceViolation(CheckBijection, ak.Attr, i,
					fmt.Sprintf("output %v outside the piece interval [%v,%v]", y, p.OutLo, p.OutHi)))
			}
			if seen[y] {
				rep.add(newPieceViolation(CheckBijection, ak.Attr, i,
					fmt.Sprintf("duplicate output %v breaks bijectivity", y)))
			}
			seen[y] = true
		}
		for _, g := range covered {
			if !g.Mono || g.Label != covered[0].Label {
				rep.add(newPieceViolation(CheckBijection, ak.Attr, i,
					fmt.Sprintf("piece is not monochromatic at value %v", g.Value)))
				break
			}
		}
	}
}

// checkCategoricalKey validates a category-permutation key: one
// permutation piece bijectively mapping the declared codes 0..k-1 onto
// themselves.
func checkCategoricalKey(rep *Report, d *dataset.Dataset, a int, ak *transform.AttributeKey) {
	rep.ran(CheckBijection)
	if len(ak.Pieces) != 1 || ak.Pieces[0] == nil || ak.Pieces[0].Kind != transform.KindPermutation {
		rep.add(newViolation(CheckBijection, ak.Attr, "categorical key must be a single permutation piece"))
		return
	}
	p := ak.Pieces[0]
	k := d.NumCategories(a)
	if len(p.DomVals) != k {
		rep.add(newPieceViolation(CheckBijection, ak.Attr, 0,
			fmt.Sprintf("permutation covers %d codes, dataset declares %d", len(p.DomVals), k)))
		return
	}
	seen := make([]bool, k)
	for j, v := range p.DomVals {
		if v != float64(j) {
			rep.add(newPieceViolation(CheckBijection, ak.Attr, 0,
				fmt.Sprintf("domain code %v at position %d, want %d", v, j, j)))
			return
		}
		o := p.OutVals[j]
		if o != math.Trunc(o) || o < 0 || int(o) >= k || seen[int(o)] {
			rep.add(newPieceViolation(CheckBijection, ak.Attr, 0,
				fmt.Sprintf("outputs are not a permutation of 0..%d (code %v → %v)", k-1, v, o)))
			return
		}
		seen[int(o)] = true
	}
}

// checkClassStrings applies the key and validates Definitions 6–7 /
// Lemma 1 on the result: per numeric attribute, the encoded class
// string must equal the original (monotone) or its descending reading
// (anti-monotone), and the label-run profile — the run count and the
// (label, length) sequence that Lemma 2's split search walks — must be
// preserved.
func checkClassStrings(rep *Report, d *dataset.Dataset, key *transform.Key) {
	rep.ran(CheckClassString)
	rep.ran(CheckLabelRuns)
	enc, err := key.Apply(d)
	if err != nil {
		rep.add(newViolation(CheckClassString, "", fmt.Sprintf("key does not apply: %v", err)))
		return
	}
	for a, ak := range key.Attrs {
		if ak.Categorical {
			continue // codes have no order; multiway splits need no class string
		}
		var want []int
		if ak.Anti {
			want = runs.ClassStringDescendingOf(d, a)
		} else {
			want = runs.ClassStringOf(d, a)
		}
		got := runs.ClassStringOf(enc, a)
		if !runs.EqualStrings(got, want) {
			rep.add(newViolation(CheckClassString, ak.Attr,
				fmt.Sprintf("encoded class string differs at position %d", firstDiff(got, want))))
		}
		wr, gr := runs.LabelRuns(want), runs.LabelRuns(got)
		if !equalRuns(wr, gr) {
			rep.add(newViolation(CheckLabelRuns, ak.Attr,
				fmt.Sprintf("label-run profile changed: %d runs encoded vs %d original", len(gr), len(wr))))
		}
	}
}

// firstDiff returns the first index at which two class strings differ
// (or the shorter length on a prefix match).
func firstDiff(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// equalRuns compares two label-run decompositions by label and length.
func equalRuns(a, b []runs.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || a[i].Len() != b[i].Len() {
			return false
		}
	}
	return true
}

// CheckArtifacts cross-verifies the pipeline's stage artifacts: the
// choose-stage decomposition must tile the profile-stage group index
// space, pieces the chooser marked monochromatic must really be
// monochromatic in the groups, and the drawn key must align with the
// chosen pieces one for one — permutation-encoded exactly where the
// chooser promised a monochromatic piece, anchored on the chosen group
// values. This is the deep check behind the pipeline's stitch/verify
// stage: it validates the stages against each other rather than the
// finished key alone.
func CheckArtifacts(arts []pipeline.Artifact) *Report {
	rep := &Report{}
	rep.ran(CheckStructure)
	rep.ran(CheckBreakpoints)
	for _, art := range arts {
		if art.Key == nil {
			rep.add(newViolation(CheckStructure, art.Attr, "artifact has no key"))
			continue
		}
		if art.Categorical {
			continue // no numeric stage state to cross-check
		}
		n := len(art.Groups)
		if n == 0 {
			rep.add(newViolation(CheckStructure, art.Attr, "artifact has no value groups"))
			continue
		}
		// Choose stage: contiguous tiling of [0, n).
		at := 0
		tiled := true
		for i, p := range art.Pieces {
			if p.Lo != at || p.Hi <= p.Lo || p.Hi > n {
				rep.add(newPieceViolation(CheckBreakpoints, art.Attr, i,
					fmt.Sprintf("chosen piece [%d,%d) does not tile the %d value groups", p.Lo, p.Hi, n)))
				tiled = false
				break
			}
			at = p.Hi
		}
		if tiled && at != n {
			rep.add(newViolation(CheckBreakpoints, art.Attr,
				fmt.Sprintf("chosen pieces cover %d of %d value groups", at, n)))
			tiled = false
		}
		if !tiled {
			continue
		}
		// Draw stage: key pieces align with chosen pieces.
		if len(art.Key.Pieces) != len(art.Pieces) {
			rep.add(newViolation(CheckStructure, art.Attr,
				fmt.Sprintf("key has %d pieces, chooser produced %d", len(art.Key.Pieces), len(art.Pieces))))
			continue
		}
		rep.ran(CheckBijection)
		for i, p := range art.Pieces {
			kp := art.Key.Pieces[i]
			lo, hi := art.Groups[p.Lo].Value, art.Groups[p.Hi-1].Value
			if kp.DomLo != lo || kp.DomHi != hi {
				rep.add(newPieceViolation(CheckBreakpoints, art.Attr, i,
					fmt.Sprintf("key piece domain [%v,%v] misses the chosen breakpoints [%v,%v]",
						kp.DomLo, kp.DomHi, lo, hi)))
			}
			if p.Mono {
				for j := p.Lo; j < p.Hi; j++ {
					if !art.Groups[j].Mono || art.Groups[j].Label != art.Groups[p.Lo].Label {
						rep.add(newPieceViolation(CheckBijection, art.Attr, i,
							fmt.Sprintf("chooser marked piece monochromatic but value %v is not",
								art.Groups[j].Value)))
						break
					}
				}
				if kp.Kind != transform.KindPermutation {
					rep.add(newPieceViolation(CheckBijection, art.Attr, i,
						"monochromatic piece was not permutation-encoded"))
				}
			} else if kp.Kind == transform.KindPermutation {
				rep.add(newPieceViolation(CheckBijection, art.Attr, i,
					"permutation encoding on a piece the chooser did not mark monochromatic"))
			}
		}
	}
	return rep
}
