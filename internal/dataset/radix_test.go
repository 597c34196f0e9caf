package dataset

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestOrderedValueRoundTrip pins OrderedValue as the inverse of
// OrderedBits: values map back bit for bit (NaN payloads and both
// signs of NaN included) except -0.0, which the key folds onto +0.0,
// and every key but the one -0.0 would have had maps back to itself.
func TestOrderedValueRoundTrip(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -2.75,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		values = append(values, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range values {
		want := math.Float64bits(v)
		if v == 0 {
			want = 0
		}
		if got := math.Float64bits(OrderedValue(OrderedBits(v))); got != want {
			t.Errorf("OrderedValue(OrderedBits(%#016x)) = %#016x, want %#016x", math.Float64bits(v), got, want)
		}
	}
	negZeroKey := ^math.Float64bits(math.Copysign(0, -1))
	for i := 0; i < 1000; i++ {
		k := rng.Uint64()
		if k == negZeroKey {
			continue
		}
		if got := OrderedBits(OrderedValue(k)); got != k {
			t.Errorf("OrderedBits(OrderedValue(%#016x)) = %#016x", k, got)
		}
	}
	for _, k := range []uint64{0, 1 << 63, 1<<63 - 2, ^uint64(0)} {
		if got := OrderedBits(OrderedValue(k)); got != k {
			t.Errorf("OrderedBits(OrderedValue(%#016x)) = %#016x", k, got)
		}
	}
}

// TestSortRadix checks SortRadix against a stable comparison sort on
// (Key, Label), so entries equal in both must keep their input order.
// The cases cover n = 0, 1, 2 and large; a single label, which skips
// the counting pass; labels offset by minLabel; constant keys and keys
// with constant high bytes, which skip byte passes, and keys spread
// over the full range; and results landing in xs as well as in buf.
func TestSortRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	landed := map[string]bool{}
	for _, n := range []int{0, 1, 2, 3, 1000, 20000} {
		for _, lab := range []struct{ min, k int }{{0, 1}, {0, 3}, {5, 4}} {
			for _, keys := range []string{"constant", "narrow", "full"} {
				xs := make([]RadixEntry, n)
				for i := range xs {
					var k uint64
					switch keys {
					case "constant":
						k = 0xc000_0000_0000_0042
					case "narrow":
						k = 0xc000_0000_0000_0000 | uint64(rng.Intn(300))
					default:
						k = rng.Uint64()
					}
					xs[i] = RadixEntry{Key: k, Row: int32(i), Label: int32(lab.min + rng.Intn(lab.k))}
				}
				want := slices.Clone(xs)
				slices.SortStableFunc(want, func(a, b RadixEntry) int {
					if c := cmp.Compare(a.Key, b.Key); c != 0 {
						return c
					}
					return cmp.Compare(a.Label, b.Label)
				})
				buf := make([]RadixEntry, n)
				got := SortRadix(xs, buf, lab.min, make([]int, lab.k))
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d labels [%d,%d) %s keys: radix order differs from the stable comparison sort",
						n, lab.min, lab.min+lab.k, keys)
				}
				if n == 0 {
					continue
				}
				switch &got[0] {
				case &xs[0]:
					landed["xs"] = true
				case &buf[0]:
					landed["buf"] = true
				default:
					t.Fatalf("n=%d: result lies in neither xs nor buf", n)
				}
			}
		}
	}
	if !landed["xs"] || !landed["buf"] {
		t.Fatalf("results landed in %v; the cases must cover both xs and buf", landed)
	}
}
