// Package runs implements the class-string machinery of Sections 3–5 of
// the paper: class strings (Definition 6), label runs (Definition 7),
// monochromatic values and maximal monochromatic pieces (Definition 9),
// and the attribute profile statistics reported in Figure 8.
//
// Everything reads one statistic, the per-value class histograms of
// an attribute (ClassGroup, grouped by ClassScratch), which is what
// both the decision-tree split search (Lemma 2) and the piecewise
// transformation framework (Section 5) consume.
package runs

import (
	"math"
	"strings"

	"privtree/internal/dataset"
)

// ValueGroup summarizes the projected tuples sharing one distinct value
// of an attribute for the choose and draw stages. It is a function of
// the value's ClassGroup (ValueGroupsOf).
type ValueGroup struct {
	// Value is the shared attribute value.
	Value float64
	// Count is the number of tuples with this value.
	Count int
	// Mono reports whether the value is monochromatic: all tuples with
	// this value agree on the class label (Definition 9).
	Mono bool
	// Label is the shared class label when Mono is true; otherwise the
	// label of the first tuple in canonical order.
	Label int
}

// GroupStats computes dataset.BasicStats from an attribute's value
// groups — the same statistics Dataset.Stats derives from a fresh
// ActiveDomain sort, but read off the already-grouped values so the
// profile stage groups each column exactly once.
func GroupStats(groups []ValueGroup) dataset.BasicStats {
	if len(groups) == 0 {
		return dataset.BasicStats{}
	}
	s := dataset.BasicStats{
		Min:           groups[0].Value,
		Max:           groups[len(groups)-1].Value,
		Distinct:      len(groups),
		IntegerValued: true,
	}
	s.RangeWidth = s.Max - s.Min
	for _, g := range groups {
		if g.Value != math.Trunc(g.Value) {
			s.IntegerValued = false
			break
		}
	}
	if s.IntegerValued {
		s.Discontinuities = int(s.RangeWidth) + 1 - s.Distinct
		if s.Discontinuities < 0 {
			s.Discontinuities = 0
		}
	}
	return s
}

// ClassStringOf computes σ_{A,D} for attribute a of d: the class
// labels in ascending value order, with equal values listing their
// labels ascending (Definition 6's canonical tie order). It expands
// the attribute's class-count groups front to back.
func ClassStringOf(d *dataset.Dataset, a int) []int {
	return classString(d, a, +1)
}

// Format renders a class string using the dataset's class names, taking
// the first letter of each name — e.g. "HHHLHL" for Figure 1. Labels out
// of range render as '?'.
func Format(classString []int, classNames []string) string {
	var b strings.Builder
	for _, l := range classString {
		if l >= 0 && l < len(classNames) && len(classNames[l]) > 0 {
			b.WriteByte(classNames[l][0])
		} else {
			b.WriteByte('?')
		}
	}
	return b.String()
}

// ClassStringDescendingOf computes the class string of attribute a with
// values sorted descending while keeping the canonical (label-ascending)
// order within blocks of equal values. This is the class string an
// anti-monotone transformation produces (Lemma 1): σ^R up to tie
// canonicalization, because equal values collapse onto one transformed
// value and retain the canonical tie order. It expands the attribute's
// class-count groups back to front.
func ClassStringDescendingOf(d *dataset.Dataset, a int) []int {
	return classString(d, a, -1)
}

// Reverse returns σ^R, the reverse of a class string, which is what an
// anti-monotone transformation produces (Lemma 1).
func Reverse(classString []int) []int {
	out := make([]int, len(classString))
	for i, l := range classString {
		out[len(out)-1-i] = l
	}
	return out
}

// EqualStrings reports whether two class strings are identical.
func EqualStrings(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Run is one label run r_i of a class string: a maximal substring of a
// single class label (Definition 7). Start and End index the class
// string; the run covers [Start, End).
type Run struct {
	Label      int
	Start, End int
}

// Len returns the number of positions in the run.
func (r Run) Len() int { return r.End - r.Start }

// LabelRuns decomposes a class string into its label runs.
func LabelRuns(classString []int) []Run {
	var out []Run
	for i, l := range classString {
		if n := len(out); n > 0 && out[n-1].Label == l {
			out[n-1].End = i + 1
			continue
		}
		out = append(out, Run{Label: l, Start: i, End: i + 1})
	}
	return out
}
