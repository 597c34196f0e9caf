package pipeline

import (
	"math/rand"
	"testing"

	"privtree/internal/dataset"
)

// profileBenchDataset builds an m-attribute dataset of n tuples with
// realistic tie structure: integer-ish values over mid-size domains,
// several classes.
func profileBenchDataset(tb testing.TB, n, m int) *dataset.Dataset {
	tb.Helper()
	rng := rand.New(rand.NewSource(41))
	names := make([]string, m)
	for a := range names {
		names[a] = string(rune('a' + a))
	}
	d := dataset.New(names, []string{"L", "M", "H"})
	vals := make([]float64, m)
	for i := 0; i < n; i++ {
		for a := range vals {
			vals[a] = float64(rng.Intn(200 * (a + 1)))
		}
		if err := d.Append(vals, rng.Intn(3)); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// BenchmarkProfileStage measures the profile stage alone — the
// dominant encode stage — and reports rows profiled per second
// (rows × attributes / wall clock) alongside ns/op so throughput
// regressions are visible independent of dataset size.
func BenchmarkProfileStage(b *testing.B) {
	const n, m = 20000, 8
	d := profileBenchDataset(b, n, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profileColumns(d, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(m)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// TestProfileColumnsAllocsIndependentOfRows pins the pooled-scratch
// behavior at the stage level: once the grouping scratch pool is warm,
// the per-call allocation count must not grow with the number of
// tuples — only with the number of attributes (one exact-size groups
// slice each). A reintroduced per-call projection copy or histogram
// doubles the count and fails the bound.
func TestProfileColumnsAllocsIndependentOfRows(t *testing.T) {
	small := profileBenchDataset(t, 512, 4)
	big := profileBenchDataset(t, 8192, 4)
	for _, d := range []*dataset.Dataset{small, big} {
		if _, err := profileColumns(d, 1); err != nil { // warm the pool
			t.Fatal(err)
		}
	}
	bound := func(d *dataset.Dataset) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := profileColumns(d, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a2 := bound(small), bound(big)
	// Fixed overhead: cols slice, fan-out bookkeeping, plus one groups
	// slice per attribute. GC may clear the pool mid-run, so allow
	// slack — but a per-call projection copy adds one n-sized
	// allocation per attribute on every call, which the cross-size
	// comparison catches regardless.
	const fixed = 4 + 4 + 6
	if a1 > fixed || a2 > fixed {
		t.Errorf("profileColumns allocates %.1f (n=512) / %.1f (n=8192) per call, want <= %d", a1, a2, fixed)
	}
	if a2 > a1+4 {
		t.Errorf("profileColumns allocations grow with rows: %.1f (n=512) vs %.1f (n=8192)", a1, a2)
	}
}
