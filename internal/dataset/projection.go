package dataset

import (
	"slices"
	"sync"
)

// The pooled sorted-projection fast path. SortedProjection is the hot
// inner operation of the encode pipeline's profile stage (one call per
// attribute per encode, over the full column), so it gets an
// allocation-lean variant: callers that profile repeatedly hand in a
// ProjScratch whose buffers are reused across calls, and the sort is
// non-reflective — pdqsort via slices.SortFunc for short columns, an
// LSD radix sort on the IEEE-754 bit pattern for long ones. Both paths
// produce the exact (Value, Label) order of Definition 6's canonical
// tie-breaking.

// radixMinLen is the column length at which the radix sort takes over
// from the comparison sort. Below it the O(n log n) comparison sort
// wins on constant factors; above it the O(8n) byte passes (most of
// which are skipped for narrow-range data) dominate.
const radixMinLen = 256

// ProjScratch is reusable working memory for SortedProjectionInto: the
// projection buffer the sorted result lives in, the radix entries and
// the ping-pong buffer their passes swap through, and the
// label-counting array.
//
// Ownership rules (see DESIGN.md §5e): the slice returned by
// SortedProjectionInto aliases the scratch and is valid only until the
// next call with the same scratch; callers keep nothing that aliases
// it (copy what outlives the call, as runs.GroupColumn does). A scratch
// must not be shared between goroutines; per-worker scratches (or the
// package pool) give each goroutine its own.
type ProjScratch struct {
	proj []ProjectedTuple
	ents []RadixEntry
	swap []RadixEntry
	cnt  []int
}

var projScratchPool = sync.Pool{New: func() any { return new(ProjScratch) }}

// GetProjScratch hands out a pooled scratch; return it with
// PutProjScratch when done. Serial call sites (one profile at a time)
// use the pool; fan-outs that want zero pool traffic allocate one
// scratch per worker instead.
func GetProjScratch() *ProjScratch { return projScratchPool.Get().(*ProjScratch) }

// PutProjScratch returns a scratch to the pool. The caller must not
// use the scratch — or any projection slice obtained from it — after
// the put.
func PutProjScratch(s *ProjScratch) { projScratchPool.Put(s) }

// SortedProjectionInto is SortedProjection without the per-call
// allocation: the A-projected tuples are materialized and sorted in
// s's buffers and the sorted slice (aliasing s) is returned. The
// ordering is identical to SortedProjection: ascending by value,
// ties broken by label (Definition 6's canonical order).
func (d *Dataset) SortedProjectionInto(a int, s *ProjScratch) []ProjectedTuple {
	col := d.Cols[a]
	n := len(col)
	if cap(s.proj) < n {
		s.proj = make([]ProjectedTuple, n)
	}
	s.proj = s.proj[:n]
	for i, v := range col {
		s.proj[i] = ProjectedTuple{Value: v, Label: d.Labels[i]}
	}
	s.sort(col)
	return s.proj
}

// sort orders s.proj, the projection of col, by (Value, Label),
// choosing the radix path for long columns. Either path yields the
// same element sequence on NaN-free data; tuples equal in both fields
// are indistinguishable, so their internal order never matters.
func (s *ProjScratch) sort(col []float64) {
	n := len(s.proj)
	if n < radixMinLen {
		slices.SortFunc(s.proj, func(x, y ProjectedTuple) int {
			if x.Value < y.Value {
				return -1
			}
			if x.Value > y.Value {
				return 1
			}
			return x.Label - y.Label
		})
		return
	}
	minL, maxL := s.proj[0].Label, s.proj[0].Label
	nan := false
	for _, t := range s.proj {
		if t.Label < minL {
			minL = t.Label
		}
		if t.Label > maxL {
			maxL = t.Label
		}
		if t.Value != t.Value {
			nan = true
		}
	}
	// The radix key orders NaNs deterministically (by sign bit) while
	// the comparison sort leaves them wherever the inconsistent
	// comparator drops them; fall back so both paths stay governed by
	// one (unspecified-for-NaN) order. Sparse label spaces would blow
	// up the counting sort; they cannot arise from validated datasets
	// (labels index ClassNames) but hand-built ones get the safe path.
	if nan || maxL-minL+1 > n {
		slices.SortFunc(s.proj, func(x, y ProjectedTuple) int {
			if x.Value < y.Value {
				return -1
			}
			if x.Value > y.Value {
				return 1
			}
			return x.Label - y.Label
		})
		return
	}
	s.sortRadix(col, minL, maxL-minL+1)
}

// sortRadix sorts s.proj, the projection of col, by (Value, Label)
// with SortRadix over k label buckets starting at minLabel.
func (s *ProjScratch) sortRadix(col []float64, minLabel, k int) {
	n := len(s.proj)
	if cap(s.ents) < n {
		s.ents = make([]RadixEntry, n)
		s.swap = make([]RadixEntry, n)
	}
	s.ents, s.swap = s.ents[:n], s.swap[:n]
	if cap(s.cnt) < k {
		s.cnt = make([]int, k)
	}
	for i, t := range s.proj {
		s.ents[i] = RadixEntry{Key: OrderedBits(t.Value), Row: int32(i), Label: int32(t.Label)}
	}
	for i, e := range SortRadix(s.ents, s.swap, minLabel, s.cnt[:k]) {
		s.proj[i] = ProjectedTuple{Value: col[e.Row], Label: int(e.Label)}
	}
}
