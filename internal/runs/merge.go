package runs

import "privtree/internal/dataset"

// Shard-wise grouping: the sharded profile stage and BuildSharded's
// level scan group each shard on its own and merge the per-shard groups
// here. Merging is exact, not approximate — the merged groups are
// element-identical to ClassScratch.Group over the concatenated
// projection — because counts are integers and summing them is
// order-insensitive. Whatever is derived from the histograms afterwards
// (ValueGroupsOf, the split scan) is therefore identical too.
//
// The runs are ordered, and equal values found, by dataset.OrderedBits
// keys: the order Group emits. Comparing the values as floats would
// make a NaN group equal to every value and fold neighbouring groups
// into it.
//
// The fold proceeds in shard-index order for determinism discipline,
// though the combine is associative and commutative, so any order
// would produce the same bytes.

// MergeClassGroups merges per-shard class-count groups — each slice in
// ascending OrderedBits order, as ClassScratch.Group produces — into
// the groups of the union of the shards. The result is a fresh slice;
// a group present in one shard only shares its histogram with that
// shard's input, and combined groups get fresh histograms, so callers
// treat histograms as read-only.
func MergeClassGroups(shards [][]ClassGroup) []ClassGroup {
	var acc []ClassGroup
	first := true
	for _, sh := range shards {
		if len(sh) == 0 {
			continue
		}
		if first {
			acc = append([]ClassGroup(nil), sh...)
			first = false
			continue
		}
		out := make([]ClassGroup, 0, len(acc)+len(sh))
		i, j := 0, 0
		for i < len(acc) && j < len(sh) {
			ka, kb := dataset.OrderedBits(acc[i].Value), dataset.OrderedBits(sh[j].Value)
			switch {
			case ka < kb:
				out = append(out, acc[i])
				i++
			case kb < ka:
				out = append(out, sh[j])
				j++
			default:
				c := make([]int, len(acc[i].Counts))
				for k := range c {
					c[k] = acc[i].Counts[k] + sh[j].Counts[k]
				}
				out = append(out, ClassGroup{Value: acc[i].Value, Counts: c})
				i++
				j++
			}
		}
		out = append(out, acc[i:]...)
		acc = append(out, sh[j:]...)
	}
	return acc
}
