package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
	"privtree/internal/transform"
)

// OutputSchema returns the schema of the transformed stream: attribute
// and class names are unchanged, but categorical attributes get opaque
// "k0", "k1", ... category names — the real names would leak which
// permuted code means what. The returned schema does not alias in; it
// is safe to hand to a Sink while in keeps growing.
func OutputSchema(key *transform.Key, in *dataset.Schema) (*dataset.Schema, error) {
	if err := checkWidth(key, in.NumAttrs()); err != nil {
		return nil, err
	}
	out := in.Clone()
	for a, names := range in.Categorical {
		if !key.Attrs[a].Categorical {
			continue
		}
		opaque := make([]string, len(names))
		for c := range opaque {
			opaque[c] = fmt.Sprintf("k%d", c)
		}
		out.Categorical[a] = opaque
	}
	return out, nil
}

// checkWidth is the one key-width check of the apply stage: key must
// hold one attribute key per column of the n-attribute input.
func checkWidth(key *transform.Key, n int) error {
	if len(key.Attrs) != n {
		return &StageError{
			Stage: StageApply,
			Err:   fmt.Errorf("key has %d attributes, data has %d: %w", len(key.Attrs), n, transform.ErrKeyMismatch),
		}
	}
	return nil
}

// ApplyCSV writes rel encoded under key to w as CSV: a header, then
// every tuple in order, with categorical attributes under
// OutputSchema's opaque category names. An in-memory relation streams
// through ApplyStream's block loop, a sharded one through
// ApplySharded's ordered per-shard loop; the bytes are the same either
// way, at any chunk size and worker count. ctx is observed between
// blocks or shards: cancellation returns a StageError wrapping ctx's
// error, and the CSV is left without its end.
func ApplyCSV(ctx context.Context, key *transform.Key, rel dataset.Relation, w io.Writer, chunk, workers int) error {
	schema, err := OutputSchema(key, rel.Schema())
	if err != nil {
		return err
	}
	sink := dataset.NewCSVSink(w, schema)
	if d, ok := rel.(*dataset.Dataset); ok {
		return ApplyStream(ctx, key, dataset.NewDatasetSource(d), sink, chunk, workers)
	}
	return applySharded(ctx, key, rel.(*dataset.ShardedSource), sink, chunk, workers)
}

// ApplyStream is the block-wise apply stage: it drains src, transforms
// every attribute value of each block under key — fanning out per
// attribute over workers goroutines within a block — and writes the
// transformed blocks to sink. chunk bounds the tuples per block
// (<= 0 for the source's default). Values are identical to Apply on the
// materialized data set at any chunk size and worker count: the
// per-value transform is pure, so neither blocking nor fan-out can
// reorder or change anything.
//
// ctx bounds the stream's lifetime: cancellation (a disconnected HTTP
// client, a daemon shutting down) is observed between blocks, so a
// long stream returns promptly with a StageError wrapping ctx's error
// (errors.Is(err, context.Canceled) / context.DeadlineExceeded) instead
// of draining the source to EOF.
//
// Sinks that carry category names should be constructed against
// OutputSchema(key, src.Schema()); ApplyCSV does that.
func ApplyStream(ctx context.Context, key *transform.Key, src dataset.Source, sink dataset.Sink, chunk, workers int) error {
	if err := checkWidth(key, src.Schema().NumAttrs()); err != nil {
		return err
	}
	workers = parallel.ResolveWorkers(workers)
	sp := obs.StartSpan("encode/apply_stream")
	defer sp.End()
	// Live progress: rows/s, chunk index and ETA as gauges (scrapeable
	// from the obs server's /metrics mid-run) plus the optional ticker.
	// StartProgress returns nil when nothing observes the run, so the
	// flag-less path neither reads the clock nor starts a goroutine.
	total := int64(-1)
	if t, ok := src.(interface{ Total() int }); ok {
		total = int64(t.Total())
	}
	pg := obs.StartProgress("encode/apply_stream", total)
	defer pg.Close()
	// The per-block transform closure is hoisted out of the loop and
	// reads the current block through blk, so a long stream does not
	// allocate a fresh closure (plus the pool's per-batch bookkeeping)
	// for every chunk; with a single worker the pool is skipped
	// entirely. Values are identical either way: ApplyColumn is pure
	// and per-attribute.
	var blk *dataset.Block
	applyAttr := func(a int) error {
		col := blk.Cols[a]
		key.Attrs[a].ApplyColumn(col, col)
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return &StageError{Stage: StageApply, Err: fmt.Errorf("stream aborted: %w", err)}
		}
		var err error
		blk, err = src.Next(chunk)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return &StageError{Stage: StageApply, Err: err}
		}
		obs.Add("pipeline.stream.blocks", 1)
		obs.Add("pipeline.stream.rows", int64(blk.NumRows()))
		obs.Observe("pipeline.stream.block_rows", float64(blk.NumRows()))
		if workers <= 1 {
			for a := range blk.Cols {
				_ = applyAttr(a) // always nil; signature shared with the fan-out
			}
		} else if err := parallel.ForEach(ctx, len(blk.Cols), workers, applyAttr); err != nil {
			return &StageError{Stage: StageApply, Err: err}
		}
		if err := sink.Write(blk); err != nil {
			return &StageError{Stage: StageApply, Err: err}
		}
		pg.Step(blk.NumRows())
	}
	if err := sink.Flush(); err != nil {
		return &StageError{Stage: StageApply, Err: err}
	}
	return nil
}
