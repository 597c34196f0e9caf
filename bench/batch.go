package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"privtree/internal/dataset"
	"privtree/internal/pipeline"
	"privtree/internal/synth"
	"privtree/internal/transform"
	"privtree/internal/tree"
)

// workers is the fan-out every layer is given, matching GOMAXPROCS.
const workers = 2

// encodeOptions are privtree encode's defaults: MaxMP, w = 20, minimum
// piece width 5.
func encodeOptions() pipeline.Options {
	return pipeline.Options{Strategy: pipeline.StrategyMaxMP, Breakpoints: 20, MinPieceWidth: 5, Workers: workers}
}

// stageTimes are the parts of one round trip a batch workload reports.
type stageTimes struct{ encode, mine time.Duration }

// batch is a workload that repeats one custodian → miner → custodian
// round trip.
type batch struct {
	rows     int
	minIters int
	// setUp brings the system under test to ready once; it is repeated
	// to time set-up.
	setUp func() error
	// iterate runs round trip i and returns a check of its output that
	// runs after the iteration's timing stops.
	iterate func(i int, it *span) (stageTimes, func() bool, error)
}

// Set-up is repeated at least setupMinReps times and until a twelfth
// of the timed phase (2 s in a 25 s run) has passed, at most
// setupMaxReps times, each time after one host probe pass; setup_s is
// the median, so a set-up of milliseconds is timed as steadily as one
// of a tenth of a second and the probe sees the host as the set-ups
// did.
const (
	setupMinReps = 5
	setupMaxReps = 50
)

func timeSetup(cfg config, setUp func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < setupMinReps || len(ds) < setupMaxReps && time.Since(start) < cfg.seconds/12 {
		cfg.probe.run(1)
		t0 := time.Now()
		if err := setUp(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	cfg.probe.endSetup()
	return median(ds), nil
}

// The host probe runs probesBefore times before the timed phase and
// probesPerIteration times before each round trip.
const (
	probesBefore       = 5
	probesPerIteration = 2
)

func runBatch(cfg config, b batch) (*outcome, error) {
	setupS, err := timeSetup(cfg, b.setUp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o := &outcome{e2e: map[string]float64{"setup_s": setupS}, layer: map[string]float64{}, diag: map[string]float64{}}
	var iters, encs, mines []float64
	var timed time.Duration
	cfg.probe.run(probesBefore)
	ph := beginPhase()
	// Iterate while another round trip as long as the last one still
	// fits in the timed phase, so a run of long iterations does not
	// overrun it by most of an iteration.
	for i := 0; ; i++ {
		cfg.probe.run(probesPerIteration)
		it := cfg.tr.open("bench.iteration", 0, "", int64(i+1))
		t0 := time.Now()
		st, check, err := b.iterate(i, it)
		d := time.Since(t0)
		cfg.tr.close(it)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		timed += d
		iters = append(iters, d.Seconds())
		encs = append(encs, st.encode.Seconds())
		mines = append(mines, st.mine.Seconds())
		o.attempted++
		if !check() {
			o.failed++
		}
		if i+1 >= b.minIters && time.Since(ph.start)+d > cfg.seconds {
			break
		}
	}
	ps := ph.end()
	rows := float64(b.rows)
	o.e2e["rows_per_s"] = rows / median(iters)
	o.e2e["encode_rows_per_s"] = rows / median(encs)
	o.e2e["latency_p50_ms"] = 1e3 * median(iters)
	o.e2e["latency_p90_ms"] = 1e3 * quantile(iters, 0.9)
	o.e2e["peak_mem_mb"] = ps.PeakMemMB
	o.layer["parallel.cpu_busy_frac"] = ps.CPUBusyFrac
	o.diag["raw.mine_rows_per_s"] = rows / median(mines)
	o.diag["iterations"] = float64(len(iters))
	o.spans = cfg.tr.take()
	o.wall = timed
	if cfg.tr != nil {
		for k, v := range layerMetrics(o.spans, timed) {
			o.layer[k] = v
		}
		o.layer["trace.coverage"] = coverage(o.spans, "bench.iteration")
	}
	return o, nil
}

// custodianCSV is the paper's loop in memory over CSV bytes: the
// custodian encodes D, the miner mines D′, the custodian decodes the
// tree.
func custodianCSV(cfg config) (*outcome, error) {
	rows := 100_000
	if cfg.short {
		rows = 2_000
	}
	in, err := covertypeCSV(cfg.seed, rows)
	if err != nil {
		return nil, err
	}
	mineCfg := tree.Config{MinLeaf: 5, Workers: workers}
	// The reference is mined from the data as the custodian reads it,
	// so class indices match the decoded tree's.
	ref, orig, err := referenceTree(cfg.tr, mineCfg, func() (*dataset.Dataset, error) {
		return dataset.ReadCSV(bytes.NewReader(in))
	})
	if err != nil {
		return nil, err
	}
	tr := cfg.tr
	var encBuf bytes.Buffer
	return runBatch(cfg, batch{
		rows:     rows,
		minIters: 3,
		setUp: func() error {
			_, err := dataset.ReadCSV(bytes.NewReader(in))
			return err
		},
		iterate: func(i int, it *span) (st stageTimes, check func() bool, err error) {
			t0 := time.Now()
			var d, enc *dataset.Dataset
			var key *transform.Key
			if err = tr.do("dataset.read_csv", it, func() (e error) {
				d, e = dataset.ReadCSV(bytes.NewReader(in))
				return e
			}); err != nil {
				return
			}
			if err = tr.do("pipeline.build_key", it, func() (e error) {
				key, e = pipeline.BuildKey(d, encodeOptions(), rand.New(rand.NewSource(encodeSeed(cfg.seed, i))))
				return e
			}); err != nil {
				return
			}
			if err = tr.do("pipeline.apply", it, func() (e error) {
				enc, e = pipeline.Apply(d, key, workers)
				return e
			}); err != nil {
				return
			}
			encBuf.Reset()
			if err = tr.do("dataset.write_csv", it, func() error { return enc.WriteCSV(&encBuf) }); err != nil {
				return
			}
			if err = tr.do("transform.marshal_key", it, func() (e error) {
				_, e = transform.MarshalKey(key)
				return e
			}); err != nil {
				return
			}
			t1 := time.Now()
			var mined *tree.Tree
			var blob []byte
			if err = tr.do("dataset.read_csv", it, func() (e error) {
				enc, e = dataset.ReadCSV(bytes.NewReader(encBuf.Bytes()))
				return e
			}); err != nil {
				return
			}
			if err = tr.do("tree.build", it, func() (e error) {
				mined, e = tree.Build(enc, mineCfg)
				return e
			}); err != nil {
				return
			}
			if err = tr.do("tree.marshal", it, func() (e error) {
				blob, e = tree.Marshal(mined)
				return e
			}); err != nil {
				return
			}
			t2 := time.Now()
			var decoded *tree.Tree
			if err = tr.do("tree.unmarshal", it, func() (e error) {
				mined, e = tree.Unmarshal(blob)
				return e
			}); err != nil {
				return
			}
			if err = tr.do("tree.decode_with_data", it, func() (e error) {
				decoded, e = tree.DecodeWithData(mined, key, d)
				return e
			}); err != nil {
				return
			}
			st = stageTimes{encode: t1.Sub(t0), mine: t2.Sub(t1)}
			return st, func() bool { return tree.EquivalentOn(ref, decoded, orig) }, nil
		},
	})
}

// covertypeCSV is the CSV text of rows covertype-like tuples drawn from
// seed.
func covertypeCSV(seed int64, rows int) ([]byte, error) {
	d, err := synth.Covertype(rand.New(rand.NewSource(seed)), rows)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := d.WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// encodeSeed gives round trip i of a run its own encode seed.
func encodeSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// referenceTree mines the tree every decoded tree must equal, from the
// data load returns, and returns both.
func referenceTree(tr *tracer, cfg tree.Config, load func() (*dataset.Dataset, error)) (*tree.Tree, *dataset.Dataset, error) {
	d, err := load()
	if err != nil {
		return nil, nil, err
	}
	var ref *tree.Tree
	err = tr.do("tree.build_reference", nil, func() (e error) {
		ref, e = tree.Build(d, cfg)
		return e
	})
	return ref, d, err
}

// outOfCoreBin is the 1M-row binary-shard round trip: sharded key
// build and apply, sharded mining, and a decode against the original
// materialized the way `privtree decode -manifest` does.
func outOfCoreBin(cfg config) (*outcome, error) {
	rows, shards := 1_000_000, 8
	if cfg.short {
		rows = 2_000
	}
	dir, err := os.MkdirTemp(cfg.workdir, "outofcore-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rowsPerShard := (rows + shards - 1) / shards
	origManifest, err := writeShards(filepath.Join(dir, "orig"), rows, rowsPerShard, cfg.seed)
	if err != nil {
		return nil, err
	}
	mineCfg := tree.Config{MinLeaf: 20, MaxDepth: 10, Workers: workers}
	ref, _, err := referenceTree(cfg.tr, mineCfg, func() (*dataset.Dataset, error) { return materialize(origManifest) })
	if err != nil {
		return nil, err
	}
	tr := cfg.tr
	return runBatch(cfg, batch{
		rows:     rows,
		minIters: 2,
		setUp:    func() error { return verifyShards(origManifest) },
		iterate: func(i int, it *span) (st stageTimes, check func() bool, err error) {
			t0 := time.Now()
			src, err := dataset.OpenSharded(origManifest)
			if err != nil {
				return
			}
			defer src.Close()
			var key *transform.Key
			if err = tr.do("pipeline.build_key_sharded", it, func() (e error) {
				key, e = pipeline.BuildKeySharded(src, encodeOptions(), rand.New(rand.NewSource(encodeSeed(cfg.seed, i))))
				return e
			}); err != nil {
				return
			}
			encPrefix := filepath.Join(dir, fmt.Sprintf("enc%d", i))
			var sink *dataset.BinaryShardSink
			if err = tr.do("pipeline.apply_sharded", it, func() (e error) {
				if sink, e = dataset.NewBinaryShardSink(encPrefix, rowsPerShard, src.Schema()); e != nil {
					return e
				}
				if e = pipeline.ApplySharded(key, src, sink, 0, workers); e != nil {
					return e
				}
				return sink.Flush()
			}); err != nil {
				return
			}
			if err = tr.do("transform.marshal_key", it, func() (e error) {
				_, e = transform.MarshalKey(key)
				return e
			}); err != nil {
				return
			}
			t1 := time.Now()
			var mined *tree.Tree
			var blob []byte
			if err = tr.do("tree.build_sharded", it, func() error {
				esrc, e := dataset.OpenSharded(sink.ManifestPath())
				if e != nil {
					return e
				}
				defer esrc.Close()
				mined, e = tree.BuildSharded(esrc, mineCfg)
				return e
			}); err != nil {
				return
			}
			if err = tr.do("tree.marshal", it, func() (e error) {
				blob, e = tree.Marshal(mined)
				return e
			}); err != nil {
				return
			}
			t2 := time.Now()
			var orig *dataset.Dataset
			var decoded *tree.Tree
			if err = tr.do("tree.unmarshal", it, func() (e error) {
				mined, e = tree.Unmarshal(blob)
				return e
			}); err != nil {
				return
			}
			if err = tr.do("dataset.read_sharded", it, func() (e error) {
				orig, e = materialize(origManifest)
				return e
			}); err != nil {
				return
			}
			if err = tr.do("tree.decode_with_data", it, func() (e error) {
				decoded, e = tree.DecodeWithData(mined, key, orig)
				return e
			}); err != nil {
				return
			}
			st = stageTimes{encode: t1.Sub(t0), mine: t2.Sub(t1)}
			return st, func() bool {
				ok := tree.EquivalentOn(ref, decoded, orig)
				if err := removeShards(sink.ManifestPath()); err != nil {
					return false
				}
				return ok
			}, nil
		},
	})
}

// genBlockRows is the tuples per block written while generating shards.
const genBlockRows = 4096

// writeShards streams n covertype-like rows from seed into binary
// shards under prefix and returns the manifest path. The rows equal
// synth.Covertype's at the same seed.
func writeShards(prefix string, n, rowsPerShard int, seed int64) (string, error) {
	st, err := synth.CovertypeStreamer()
	if err != nil {
		return "", err
	}
	sink, err := dataset.NewBinaryShardSink(prefix, rowsPerShard, st.Schema())
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, st.NumAttrs())
	blk := &dataset.Block{Cols: make([][]float64, st.NumAttrs())}
	for done := 0; done < n; done += len(blk.Labels) {
		for a := range blk.Cols {
			blk.Cols[a] = blk.Cols[a][:0]
		}
		blk.Labels = blk.Labels[:0]
		for i := 0; i < genBlockRows && done+i < n; i++ {
			label := st.Sample(rng, vals)
			for a, v := range vals {
				blk.Cols[a] = append(blk.Cols[a], v)
			}
			blk.Labels = append(blk.Labels, label)
		}
		if err := sink.Write(blk); err != nil {
			return "", err
		}
	}
	if err := sink.Flush(); err != nil {
		return "", err
	}
	return sink.ManifestPath(), nil
}

// materialize reads a sharded set into memory.
func materialize(manifest string) (*dataset.Dataset, error) {
	src, err := dataset.OpenSharded(manifest)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	coll := dataset.NewCollector(src.Schema())
	for {
		blk, err := src.Next(0)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := coll.Write(blk); err != nil {
			return nil, err
		}
	}
	return coll.Dataset()
}

// verifyShards opens the sharded set and streams every shard through
// once, which checks each shard's row count and checksum against the
// manifest: the custodian's input is ready when it is known intact.
// Opening alone takes tens of microseconds, too little to time
// steadily on a shared host.
func verifyShards(manifest string) error {
	src, err := dataset.OpenSharded(manifest)
	if err != nil {
		return err
	}
	defer src.Close()
	for {
		if _, err := src.Next(0); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// removeShards deletes a sharded set's files.
func removeShards(manifest string) error {
	m, err := dataset.ReadManifest(manifest)
	if err != nil {
		return err
	}
	for _, s := range m.Shards {
		if err := os.Remove(filepath.Join(filepath.Dir(manifest), s.Path)); err != nil {
			return err
		}
	}
	return os.Remove(manifest)
}
