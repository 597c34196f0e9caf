package dataset

import (
	"math"
	"math/rand"
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
