package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
	"privtree/internal/runs"
	"privtree/internal/transform"
)

// The out-of-core encode path. The custodian transform is built from
// global per-attribute statistics and applied row-wise, so nothing
// about it requires the in-memory Dataset: this file rewires the
// pipeline's profile and apply stages onto a sharded on-disk relation,
// with the shard as both the unit of memory (at most one shard per
// worker is ever resident) and the unit of parallelism.
//
//   - Two-pass streaming profile: pass one reads each shard once and
//     reduces it to per-attribute class-count groups (O(distinct)
//     memory, one runs.ClassScratch per worker); pass two merges the
//     per-shard groups deterministically in shard-index order
//     (runs.MergeClassGroups) and derives from them exactly the Groups
//     the in-memory profileColumns computes (runs.ValueGroupsOf). The
//     choose/draw/verify stages that follow are byte-for-byte the same
//     code (assembleKey), so BuildKey's key over the shards is
//     byte-identical to its key over the materialized data.
//   - Per-shard apply: shards are transformed concurrently and merged
//     into the sink in shard-index order (parallel.OrderedEach), so
//     the output stream is byte-identical to the single-stream
//     ApplyStream at any worker count.
//
// Sharded sources carry no categorical metadata (CSV shards are all
// numeric), so the categorical code paths never trigger here.

// BuildKeySharded is BuildKey over a sharded data set.
//
// Deprecated: BuildKey takes any dataset.Relation, a
// *dataset.ShardedSource included.
func BuildKeySharded(src *dataset.ShardedSource, opts Options, rng *rand.Rand) (*transform.Key, error) {
	return BuildKey(src, opts, rng)
}

// profileSharded is the two-pass streaming profile stage.
//
// Pass one fans out per shard: each worker materializes one shard (the
// peak-memory bound: shard size × workers), groups every attribute in
// its own runs.ClassScratch and keeps only the O(distinct) class-count
// groups. Pass two fans out per attribute, folding the per-shard groups
// in shard-index order and deriving the value groups. The merged groups
// are element-identical to grouping the concatenated relation —
// runs.MergeClassGroups is exact — so everything downstream is
// untouched by sharding.
func profileSharded(src *dataset.ShardedSource, workers int) ([]Column, error) {
	sch := src.Schema()
	nAttrs := sch.NumAttrs()
	nShards := src.NumShards()
	pg := obs.StartProgress("encode/profile_sharded", int64(src.Total()))
	defer pg.Close()

	perShard := make([][][]runs.ClassGroup, nShards) // [shard][attr]
	scratch := make([]runs.ClassScratch, workers)    // one per fan-out worker
	err := parallel.ForEachWorker(noCtx, nShards, workers, func(w, i int) error {
		sh, err := src.Shard(i)
		if err != nil {
			return &StageError{Stage: StageProfile, Err: err}
		}
		defer sh.Close()
		coll := dataset.NewCollector(sh.Schema())
		rows := 0
		for {
			blk, err := sh.Next(0)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return &StageError{Stage: StageProfile, Err: err}
			}
			rows += blk.NumRows()
			if err := coll.Write(blk); err != nil {
				return &StageError{Stage: StageProfile, Err: err}
			}
		}
		d, err := coll.Dataset()
		if err != nil {
			return &StageError{Stage: StageProfile, Err: err}
		}
		groups := make([][]runs.ClassGroup, nAttrs)
		for a := range groups {
			groups[a] = scratch[w].Group(d.Cols[a], d.Labels, len(sch.ClassNames))
		}
		perShard[i] = groups
		pg.Step(rows)
		return nil
	})
	if err != nil {
		return nil, err
	}

	cols := make([]Column, nAttrs)
	err = parallel.ForEach(noCtx, nAttrs, workers, func(a int) error {
		sg := make([][]runs.ClassGroup, nShards)
		for i := range sg {
			sg[i] = perShard[i][a]
		}
		cols[a] = Column{Index: a, Name: sch.AttrNames[a], Groups: runs.ValueGroupsOf(runs.MergeClassGroups(sg))}
		return nil
	})
	return cols, err
}

// ApplySharded is the parallel per-shard apply stage: shards are
// transformed concurrently — each worker streams its shard block-wise
// and buffers only that shard's transformed values — and the results
// are merged into the sink in shard-index order, so the output is
// byte-identical to ApplyStream over the same sharded source at any
// worker count. chunk bounds the tuples per read block (<= 0 for the
// source's default); peak memory is O(workers × shard size).
//
// Sinks that carry category names should be constructed against
// OutputSchema(key, src.Schema()) — though sharded sources are always
// numeric-only, so the schemas coincide.
func ApplySharded(key *transform.Key, src *dataset.ShardedSource, sink dataset.Sink, chunk, workers int) error {
	return applySharded(noCtx, key, src, sink, chunk, workers)
}

// applySharded is ApplySharded under ctx, which is observed between
// shards: cancellation returns a StageError wrapping ctx's error, and
// the sink is not flushed.
func applySharded(ctx context.Context, key *transform.Key, src *dataset.ShardedSource, sink dataset.Sink, chunk, workers int) error {
	sch := src.Schema()
	if err := checkWidth(key, sch.NumAttrs()); err != nil {
		return err
	}
	workers = parallel.ResolveWorkers(workers)
	sp := obs.StartSpan("encode/apply_sharded")
	defer sp.End()
	pg := obs.StartProgress("encode/apply_sharded", int64(src.Total()))
	defer pg.Close()

	nAttrs := sch.NumAttrs()
	produce := func(i int) (*dataset.Block, error) {
		sh, err := src.Shard(i)
		if err != nil {
			return nil, &StageError{Stage: StageApply, Err: err}
		}
		defer sh.Close()
		// One contiguous block per shard: the declared row count sizes
		// the buffer exactly, and a single ordered Write per shard keeps
		// the merge cheap. Values land identically to the block-wise
		// single stream because ApplyColumn is pure and per-value.
		out := &dataset.Block{
			Cols:   make([][]float64, nAttrs),
			Labels: make([]int, 0, sh.Total()),
		}
		for a := range out.Cols {
			out.Cols[a] = make([]float64, 0, sh.Total())
		}
		for {
			blk, err := sh.Next(chunk)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, &StageError{Stage: StageApply, Err: err}
			}
			for a := range blk.Cols {
				from := len(out.Cols[a])
				out.Cols[a] = append(out.Cols[a], blk.Cols[a]...)
				key.Attrs[a].ApplyColumn(out.Cols[a][from:], out.Cols[a][from:])
			}
			out.Labels = append(out.Labels, blk.Labels...)
		}
		obs.Add("pipeline.sharded.shards", 1)
		obs.Add("pipeline.sharded.rows", int64(out.NumRows()))
		return out, nil
	}
	consume := func(i int, blk *dataset.Block) error {
		if err := sink.Write(blk); err != nil {
			return &StageError{Stage: StageApply, Err: err}
		}
		pg.Step(blk.NumRows())
		return nil
	}
	if err := parallel.OrderedEach(ctx, src.NumShards(), workers, produce, consume); err != nil {
		var se *StageError
		if !errors.As(err, &se) { // produce and consume fail with StageErrors; this is ctx's
			err = &StageError{Stage: StageApply, Err: fmt.Errorf("stream aborted: %w", err)}
		}
		return err
	}
	if err := sink.Flush(); err != nil {
		return &StageError{Stage: StageApply, Err: err}
	}
	return nil
}
