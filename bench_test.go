package privtree

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/experiments"
	"privtree/internal/forest"
	"privtree/internal/obs"
	"privtree/internal/parallel"
	"privtree/internal/perturb"
	"privtree/internal/pipeline"
	"privtree/internal/risk"
	"privtree/internal/server"
	"privtree/internal/synth"
	"privtree/internal/tree"
)

// benchConfig keeps the per-iteration cost of the experiment benchmarks
// bounded; run cmd/experiments for the full-scale numbers recorded in
// EXPERIMENTS.md.
func benchConfig(seed int64) *experiments.Config {
	return &experiments.Config{
		N: 5000, Trials: 11, Seed: seed, RhoFrac: 0.02, W: 20, MinWidth: 5,
	}
}

// --- One benchmark per paper table/figure ---------------------------

// BenchmarkFig8Stats regenerates the Figure 8 attribute-statistics
// table (experiment E2 in DESIGN.md).
func BenchmarkFig8Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkFig9DomainDisclosure regenerates the Figure 9 domain
// disclosure comparison (E3).
func BenchmarkFig9DomainDisclosure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkTable622AttackGrid regenerates the Section 6.2.2 attack ×
// transformation grid (E4).
func BenchmarkTable622AttackGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Table622(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkFig10Combination regenerates the Figure 10 combination
// attack (E5).
func BenchmarkFig10Combination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkFig11Sorting regenerates the Figure 11 sorting-attack worst
// case (E6).
func BenchmarkFig11Sorting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkFig12Subspace regenerates the Figure 12 subspace association
// risks (E7).
func BenchmarkFig12Subspace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		cfg.Trials = 5 // subspace trials transform full columns
		res, err := experiments.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkTable64Pattern regenerates the Section 6.4 pattern-disclosure
// table (E8).
func BenchmarkTable64Pattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Table64(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkGuarantee regenerates the no-outcome-change verification
// (E9, Theorems 1–2).
func BenchmarkGuarantee(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Guarantee(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Cases {
			if !c.OK {
				b.Fatalf("guarantee violated: %+v", c)
			}
		}
	}
}

// BenchmarkPerturbBaseline regenerates the random-perturbation contrast
// (E10).
func BenchmarkPerturbBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.PerturbBaseline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// --- Core-operation microbenchmarks ---------------------------------

func benchData(b *testing.B, n int) *Dataset {
	b.Helper()
	d, err := synth.Covertype(rand.New(rand.NewSource(1)), n)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkEncode measures full-dataset encoding throughput.
func BenchmarkEncode(b *testing.B) {
	d := benchData(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Encode(d, EncodeOptions{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMine measures decision-tree induction on the original data.
func BenchmarkMine(b *testing.B) {
	d := benchData(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(d, TreeConfig{MinLeaf: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeTree measures the custodian-side decode.
func BenchmarkDecodeTree(b *testing.B) {
	d := benchData(b, 20000)
	enc, key, err := Encode(d, EncodeOptions{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	mined, err := Mine(enc, TreeConfig{MinLeaf: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTree(mined, key, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyApply measures single-value transformation throughput.
func BenchmarkKeyApply(b *testing.B) {
	d := benchData(b, 5000)
	_, key, err := Encode(d, EncodeOptions{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ak := key.Attrs[0]
	lo, hi := ak.DomRange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := lo + (hi-lo)*float64(i%1000)/1000
		ak.Invert(ak.Apply(x))
	}
}

// BenchmarkPerturbReconstruct measures the Agrawal–Srikant Bayesian
// reconstruction used by the baseline.
func BenchmarkPerturbReconstruct(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	noise := perturb.Noise{Kind: perturb.Gaussian, Scale: 5}
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = 50 + 10*rng.NormFloat64() + noise.Sample(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perturb.Reconstruct(vals, noise, 0, 100, 20, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations of the design choices in DESIGN.md §5 ------------------

// BenchmarkAblationRunBoundarySplit compares split search restricted to
// label-run boundaries (Lemma 2) against the exhaustive scan.
func BenchmarkAblationRunBoundarySplit(b *testing.B) {
	d := benchData(b, 20000)
	for _, sub := range []struct {
		name string
		cfg  tree.Config
	}{
		{"run-boundaries", tree.Config{MinLeaf: 5}},
		{"full-scan", tree.Config{MinLeaf: 5, FullSplitScan: true}},
	} {
		b.Run(sub.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tree.Build(d, sub.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBreakpoints sweeps the breakpoint count w: more
// pieces cost more to encode but shrink the attack surface.
func BenchmarkAblationBreakpoints(b *testing.B) {
	d := benchData(b, 10000)
	for _, w := range []int{1, 5, 20, 80} {
		b.Run(benchName("w", w), func(b *testing.B) {
			opts := EncodeOptions{Strategy: StrategyBP, Breakpoints: w}
			for i := 0; i < b.N; i++ {
				if _, _, err := Encode(d, opts, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMinPieceWidth sweeps the monochromatic piece width
// threshold of ChooseMaxMP.
func BenchmarkAblationMinPieceWidth(b *testing.B) {
	d := benchData(b, 10000)
	for _, mw := range []int{1, 5, 25} {
		b.Run(benchName("minwidth", mw), func(b *testing.B) {
			opts := EncodeOptions{Strategy: StrategyMaxMP, MinPieceWidth: mw}
			for i := 0; i < b.N; i++ {
				if _, _, err := Encode(d, opts, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCriterion compares gini and entropy induction cost.
func BenchmarkAblationCriterion(b *testing.B) {
	d := benchData(b, 20000)
	for _, sub := range []struct {
		name string
		crit tree.Criterion
	}{{"gini", tree.Gini}, {"entropy", tree.Entropy}} {
		b.Run(sub.name, func(b *testing.B) {
			cfg := tree.Config{MinLeaf: 5, Criterion: sub.crit}
			for i := 0; i < b.N; i++ {
				if _, err := tree.Build(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOrientation compares canonical-orientation mining
// (the default, anti-monotone safe) against raw orientation.
func BenchmarkAblationOrientation(b *testing.B) {
	d := benchData(b, 20000)
	for _, sub := range []struct {
		name string
		o    tree.Orientation
	}{{"canonical", tree.OrientationCanonical}, {"raw", tree.OrientationRaw}} {
		b.Run(sub.name, func(b *testing.B) {
			cfg := tree.Config{MinLeaf: 5, Orientation: sub.o}
			for i := 0; i < b.N; i++ {
				if _, err := tree.Build(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStrategy compares the encoding cost of the three
// breakpoint strategies.
func BenchmarkAblationStrategy(b *testing.B) {
	d := benchData(b, 10000)
	for _, sub := range []struct {
		name  string
		strat pipeline.Strategy
	}{
		{"none", StrategyNone}, {"choosebp", StrategyBP}, {"choosemaxmp", StrategyMaxMP},
	} {
		b.Run(sub.name, func(b *testing.B) {
			opts := EncodeOptions{Strategy: sub.strat}
			for i := 0; i < b.N; i++ {
				if _, _, err := Encode(d, opts, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel execution layer (internal/parallel) ---------------------
//
// Each benchmark runs the same deterministic workload at workers=1 and
// workers=4; the output is bit-identical, only the wall clock changes.
// scripts/bench_parallel.sh turns the ns/op into BENCH_parallel.json.

// reportRowsPerSec emits the benchmark's throughput as a custom
// "rows/s" metric: rowsPerOp rows processed per iteration over the
// measured wall clock. scripts/bench_parallel.sh records it as
// rows_per_sec in BENCH_parallel.json and scripts/bench_check.sh
// gates on it alongside ns/op.
func reportRowsPerSec(b *testing.B, rowsPerOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(rowsPerOp)*float64(b.N)/s, "rows/s")
	}
}

// BenchmarkParallelTrials measures the fan-out of randomized attack
// trials (the inner loop of every risk median in the paper's
// evaluation). Throughput counts attribute rows examined: trials ×
// column length per op.
func BenchmarkParallelTrials(b *testing.B) {
	const rows, trials = 8000, 31
	d := benchData(b, rows)
	enc, key, err := Encode(d, EncodeOptions{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := risk.NewAttrContext(d, enc, key, 0, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := risk.MedianOfTrialsParallel(trials, workers, func(t int) (float64, error) {
					return ctx.DomainTrial(parallel.NewRand(7, int64(t)), Polyline, Expert)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportRowsPerSec(b, rows*trials)
		})
	}
}

// BenchmarkParallelForest measures concurrent ensemble training.
// Throughput counts training rows consumed: trees × tuples per op.
func BenchmarkParallelForest(b *testing.B) {
	const rows, trees = 6000, 8
	d := benchData(b, rows)
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			cfg := forest.Config{Trees: trees, Seed: 3, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := forest.Train(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportRowsPerSec(b, rows*trees)
		})
	}
}

// BenchmarkParallelSplitSearch measures in-memory tree induction
// (tree.Build at MinLeaf 5): the attribute presort fans out over the
// workers, and subtrees above tree.ParallelMinRows grow on goroutines
// of their own. Throughput counts tuples mined per op.
func BenchmarkParallelSplitSearch(b *testing.B) {
	const rows = 40000
	d := benchData(b, rows)
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			cfg := tree.Config{MinLeaf: 5, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := tree.Build(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportRowsPerSec(b, rows)
		})
	}
}

// BenchmarkParallelEncodeStages measures the staged encode pipeline
// with the observability layer collecting, and reports each stage's
// span time as a custom "<stage>-ns/op" metric so
// scripts/bench_parallel.sh can break the encode wall clock down by
// stage in BENCH_parallel.json.
func BenchmarkParallelEncodeStages(b *testing.B) {
	const rows = 20000
	d := benchData(b, rows)
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			reg := obs.NewRegistry()
			obs.Enable(reg)
			defer obs.Disable()
			opts := EncodeOptions{Strategy: StrategyMaxMP, Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Encode(d, opts, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportRowsPerSec(b, rows)
			for _, sp := range reg.Snapshot().Spans {
				if strings.HasPrefix(sp.Path, "encode/") {
					stage := strings.ReplaceAll(sp.Name(), "+", "_")
					b.ReportMetric(float64(sp.Total.Nanoseconds())/float64(b.N), stage+"-ns/op")
				}
			}
		})
	}
}

// BenchmarkShardedEncode measures the out-of-core encode path end to
// end — OpenSharded, the two-pass streaming profile, and the per-shard
// parallel apply — over a 4-shard on-disk set, at workers=1 and
// workers=4. The output is byte-identical across worker counts; only
// the wall clock changes. rows/s feeds BENCH_parallel.json.
func BenchmarkShardedEncode(b *testing.B) {
	const rows, shards = 20000, 4
	st, err := synth.CovertypeStreamer()
	if err != nil {
		b.Fatal(err)
	}
	prefix := filepath.Join(b.TempDir(), "set")
	sink, err := dataset.NewShardedCSVSink(prefix, (rows+shards-1)/shards, st.Schema())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, st.NumAttrs())
	blk := &dataset.Block{Cols: make([][]float64, st.NumAttrs())}
	for i := 0; i < rows; i++ {
		label := st.Sample(rng, vals)
		for a := range vals {
			blk.Cols[a] = append(blk.Cols[a], vals[a])
		}
		blk.Labels = append(blk.Labels, label)
	}
	if err := sink.Write(blk); err != nil {
		b.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			opts := EncodeOptions{Strategy: StrategyMaxMP, Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := OpenSharded(sink.ManifestPath())
				if err != nil {
					b.Fatal(err)
				}
				key, err := BuildKey(src, opts, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				outSchema, err := pipeline.OutputSchema(key, src.Schema())
				if err != nil {
					b.Fatal(err)
				}
				if err := pipeline.ApplySharded(key, src, dataset.NewCSVSink(io.Discard, outSchema), 0, workers); err != nil {
					b.Fatal(err)
				}
				src.Close()
			}
			b.StopTimer()
			reportRowsPerSec(b, rows)
		})
	}
}

// benchShardedSet writes a covertype-like sharded set in the given
// format and returns its manifest path. The rows are identical across
// formats at the same seed, so format-vs-format benchmarks measure the
// wire encoding alone.
func benchShardedSet(b *testing.B, rows, shards int, format string) string {
	b.Helper()
	st, err := synth.CovertypeStreamer()
	if err != nil {
		b.Fatal(err)
	}
	prefix := filepath.Join(b.TempDir(), "set")
	var sink dataset.ShardSink
	switch format {
	case dataset.FormatCSV:
		sink, err = dataset.NewShardedCSVSink(prefix, (rows+shards-1)/shards, st.Schema())
	case dataset.FormatBin:
		sink, err = dataset.NewBinaryShardSink(prefix, (rows+shards-1)/shards, st.Schema())
	default:
		b.Fatalf("format %q", format)
	}
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, st.NumAttrs())
	blk := &dataset.Block{Cols: make([][]float64, st.NumAttrs())}
	for i := 0; i < rows; i++ {
		label := st.Sample(rng, vals)
		for a := range vals {
			blk.Cols[a] = append(blk.Cols[a], vals[a])
		}
		blk.Labels = append(blk.Labels, label)
	}
	if err := sink.Write(blk); err != nil {
		b.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		b.Fatal(err)
	}
	return sink.ManifestPath()
}

// BenchmarkBinaryShardedEncode is BenchmarkShardedEncode with the
// text taken out of the loop on both ends: binary shards in, binary
// shards out. The same rows, the same two-pass profile and parallel
// apply — but raw little-endian float64 columns replace CSV parsing on
// the read side and CSV formatting on the write side. The rows/s gap
// against BenchmarkShardedEncode is the price of text — the reason the
// binary format exists.
func BenchmarkBinaryShardedEncode(b *testing.B) {
	const rows, shards = 20000, 4
	manifest := benchShardedSet(b, rows, shards, dataset.FormatBin)
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			opts := EncodeOptions{Strategy: StrategyMaxMP, Workers: workers}
			outDir := b.TempDir()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := OpenSharded(manifest)
				if err != nil {
					b.Fatal(err)
				}
				key, err := BuildKey(src, opts, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				outSchema, err := pipeline.OutputSchema(key, src.Schema())
				if err != nil {
					b.Fatal(err)
				}
				sink, err := dataset.NewBinaryShardSink(
					filepath.Join(outDir, benchName("enc", i)), (rows+shards-1)/shards, outSchema)
				if err != nil {
					b.Fatal(err)
				}
				if err := pipeline.ApplySharded(key, src, sink, 0, workers); err != nil {
					b.Fatal(err)
				}
				src.Close()
			}
			b.StopTimer()
			reportRowsPerSec(b, rows)
		})
	}
}

// BenchmarkShardedMine measures the out-of-core level-synchronous
// induction over a binary-sharded set — OpenSharded plus BuildSharded
// — at workers=1 and workers=4. The tree is byte-identical to the
// in-memory build at any worker count; rows/s feeds
// BENCH_parallel.json.
func BenchmarkShardedMine(b *testing.B) {
	const rows, shards = 20000, 4
	manifest := benchShardedSet(b, rows, shards, dataset.FormatBin)
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			cfg := TreeConfig{MinLeaf: 20, MaxDepth: 10, Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := OpenSharded(manifest)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Mine(src, cfg); err != nil {
					b.Fatal(err)
				}
				src.Close()
			}
			b.StopTimer()
			reportRowsPerSec(b, rows)
		})
	}
}

// BenchmarkMedianReduction contrasts the pooled quickselect reduction
// now inside MedianOfTrials against the old copy-and-full-sort one.
func BenchmarkMedianReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 501)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.Run("pooled-quickselect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := risk.MedianOfTrials(len(vals), func(t int) float64 { return vals[t] }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alloc-and-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xs := make([]float64, len(vals))
			for t := range xs {
				xs[t] = vals[t]
			}
			sort.Float64s(xs)
			_ = (xs[len(xs)/2] + xs[(len(xs)-1)/2]) / 2
		}
	})
}

func benchName(prefix string, v int) string {
	digits := ""
	if v == 0 {
		digits = "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return prefix + "=" + digits
}

// BenchmarkProtections regenerates the unified protection-mechanism
// comparison (order-preserving / k-anonymity / perturbation / piecewise).
func BenchmarkProtections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Protections(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkSVMExt regenerates the Section 7 SVM future-work
// demonstration.
func BenchmarkSVMExt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.SVMExt(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkBadKP regenerates the Section 6.2.1 bad-knowledge-point
// sensitivity sweep.
func BenchmarkBadKP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.BadKP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkAblationRisk regenerates the risk-level ablation sweeps
// (breakpoint count U-shape, min piece width).
func BenchmarkAblationRisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Ablation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkAssoc regenerates the §2 association-rule (MASK) contrast.
func BenchmarkAssoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i))
		res, err := experiments.Assoc(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.Print(io.Discard)
	}
}

// BenchmarkServerEncode measures the privtreed HTTP service plane end
// to end: covertype rows in as a CSV POST, the encoded CSV streamed
// back over a real TCP loopback connection. Throughput counts dataset
// rows per wall-clock second plus whole requests per second — the two
// numbers capacity planning for the daemon needs. workers controls the
// per-request encode fan-out (server.Config.Workers), exactly the
// -workers flag of privtreed.
func BenchmarkServerEncode(b *testing.B) {
	const rows = 20000
	d, err := synth.Covertype(rand.New(rand.NewSource(1)), rows)
	if err != nil {
		b.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := d.WriteCSV(&csvBuf); err != nil {
		b.Fatal(err)
	}
	payload := csvBuf.Bytes()
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			srv, err := server.New(server.Config{Keys: server.NewMemStore(), Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := ts.Client()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/encode?key=bench&overwrite=1&seed=1", bytes.NewReader(payload))
				if err != nil {
					b.Fatal(err)
				}
				resp, err := client.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || n == 0 {
					b.Fatalf("encode request: status %d, %d body bytes", resp.StatusCode, n)
				}
			}
			b.StopTimer()
			reportRowsPerSec(b, rows)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkCSVCodec measures the CSV text path the custodian hands D′
// through: ReadCSV plus WriteCSV of 100k encoded covertype rows per op,
// with the codec's width set through PRIVTREE_WORKERS. Parsed datasets
// and written bytes are identical at any width; rows/s feeds
// BENCH_parallel.json.
func BenchmarkCSVCodec(b *testing.B) {
	const rows = 100_000
	enc, _, err := Encode(benchData(b, rows), EncodeOptions{Strategy: StrategyMaxMP}, 1)
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := enc.WriteCSV(&text); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.Setenv(parallel.EnvWorkers, benchName("", workers)[1:])
			var out bytes.Buffer
			b.SetBytes(int64(text.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := ReadCSV(bytes.NewReader(text.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				out.Reset()
				if err := d.WriteCSV(&out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !bytes.Equal(out.Bytes(), text.Bytes()) {
				b.Fatal("CSV round trip changed the bytes")
			}
			reportRowsPerSec(b, rows)
		})
	}
}
