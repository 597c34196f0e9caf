package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method of Python's
// statistics.quantiles). xs need not be sorted; it is not modified. An
// empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples must lie beyond a percentile before it
// is reported as a measured tail rather than an extrapolation.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond samples
// beyond the q-quantile. The rounding keeps 100 × (1 − 0.9) from
// falling short of 10.
func supported(n int, q float64) bool {
	return math.Round(float64(n)*(1-q)*1e6)/1e6 >= minBeyond
}

// tail returns the highest of p99, p90 and p50 that n samples support,
// and false when not even the median has minBeyond samples beyond it.
func tail(n int) (float64, bool) {
	for _, q := range []float64{0.99, 0.90, 0.50} {
		if supported(n, q) {
			return q, true
		}
	}
	return 0, false
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
