package dataset

import "math"

// OrderedBits maps a float64 to a uint64 whose unsigned order matches
// the float order: flip all bits of negatives, flip the sign bit of
// non-negatives. Negative zero folds onto positive zero so the bit
// order agrees with the comparison order (-0.0 == +0.0 under <), and
// key equality is float equality for every non-NaN value.
func OrderedBits(v float64) uint64 {
	if v == 0 {
		v = 0 // fold -0.0 onto +0.0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// OrderedValue inverts OrderedBits: OrderedValue(OrderedBits(v)) has
// v's bits, NaN payloads included, except that -0.0 comes back as +0.0.
func OrderedValue(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// RadixEntry is one element of a radix-sorted attribute projection: the
// OrderedBits key of a value, the row the value came from, and that
// row's class label.
type RadixEntry struct {
	Key   uint64
	Row   int32
	Label int32
}

// SortRadix sorts xs by (Key, Label) ascending and returns the sorted
// entries, which land in either xs or buf; the other slice is left
// holding garbage. buf must be as long as xs. Labels lie in
// [minLabel, minLabel+len(cnt)), and cnt is scratch for their counts.
//
// A stable counting sort on the label establishes the tie order, then
// stable LSD byte passes over the key sort by value while preserving
// it, so entries equal in both key and label keep their input order.
// Passes whose byte is constant across the input — the common case for
// real data, whose values occupy a narrow slice of the float range —
// are skipped.
func SortRadix(xs, buf []RadixEntry, minLabel int, cnt []int) []RadixEntry {
	n := len(xs)
	if n < 2 {
		return xs
	}
	cur, alt := xs, buf[:n]
	if len(cnt) > 1 {
		clear(cnt)
		for _, t := range cur {
			cnt[int(t.Label)-minLabel]++
		}
		pos := 0
		for i, c := range cnt {
			cnt[i] = pos
			pos += c
		}
		for _, t := range cur {
			b := int(t.Label) - minLabel
			alt[cnt[b]] = t
			cnt[b]++
		}
		cur, alt = alt, cur
	}

	// One pass collects all eight byte histograms.
	var hist [8][256]int
	for _, t := range cur {
		for b := 0; b < 8; b++ {
			hist[b][byte(t.Key>>(8*b))]++
		}
	}
	for b := 0; b < 8; b++ {
		c := &hist[b]
		skip := false
		for _, v := range c {
			if v == n {
				skip = true
				break
			}
			if v != 0 {
				break
			}
		}
		if skip {
			continue
		}
		pos := 0
		for i, v := range c {
			c[i] = pos
			pos += v
		}
		shift := uint(8 * b)
		for _, t := range cur {
			by := byte(t.Key >> shift)
			alt[c[by]] = t
			c[by]++
		}
		cur, alt = alt, cur
	}
	return cur
}
