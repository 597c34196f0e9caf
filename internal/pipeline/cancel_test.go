package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/synth"
)

// cancelingSource wraps a Source and cancels the given CancelFunc after
// a fixed number of blocks have been handed out — the shape of a client
// that disconnects mid-stream.
type cancelingSource struct {
	inner  dataset.Source
	cancel context.CancelFunc
	after  int
	served int
}

func (s *cancelingSource) Schema() *dataset.Schema { return s.inner.Schema() }

func (s *cancelingSource) Next(max int) (*dataset.Block, error) {
	if s.served == s.after {
		s.cancel()
	}
	blk, err := s.inner.Next(max)
	if err == nil {
		s.served++
	}
	return blk, err
}

// countingSink counts blocks so the test can assert the stream stopped
// early instead of draining to EOF.
type countingSink struct{ blocks, flushes int }

func (s *countingSink) Write(*dataset.Block) error { s.blocks++; return nil }
func (s *countingSink) Flush() error               { s.flushes++; return nil }

// TestApplyStreamCancelMidStream cancels the context after two blocks
// of a many-block stream and asserts ApplyStream returns promptly with
// a StageError wrapping context.Canceled, without flushing the sink.
func TestApplyStreamCancelMidStream(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d, err := synth.Covertype(rand.New(rand.NewSource(5)), 2000)
		if err != nil {
			t.Fatal(err)
		}
		key, err := BuildKey(d, Options{}, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const cancelAfter = 2
		src := &cancelingSource{inner: dataset.NewDatasetSource(d), cancel: cancel, after: cancelAfter}
		sink := &countingSink{}
		// chunk 100 over 2000 rows = 20 blocks; the cancellation lands
		// before block 3 is produced.
		err = ApplyStream(ctx, key, src, sink, 100, workers)
		if err == nil {
			t.Fatalf("workers=%d: ApplyStream returned nil after mid-stream cancel", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error does not wrap context.Canceled: %v", workers, err)
		}
		var se *StageError
		if !errors.As(err, &se) || se.Stage != StageApply {
			t.Fatalf("workers=%d: error is not an apply StageError: %v", workers, err)
		}
		// The cancel fires while block cancelAfter+1 is being produced.
		// Serially that in-flight block still lands (cancellation is
		// observed between blocks); with a fan-out the per-block worker
		// pool may abort it first. Either way nothing beyond it lands —
		// the stream must not drain its remaining ~17 blocks.
		if sink.blocks < cancelAfter || sink.blocks > cancelAfter+1 {
			t.Fatalf("workers=%d: sink saw %d blocks, want %d or %d (cancel observed promptly)", workers, sink.blocks, cancelAfter, cancelAfter+1)
		}
		if sink.flushes != 0 {
			t.Fatalf("workers=%d: canceled stream flushed the sink", workers)
		}
	}
}

// cancelingSink cancels its context on the given write — a client that
// disconnects after some shards have been sent.
type cancelingSink struct {
	countingSink
	cancel context.CancelFunc
	after  int
}

func (s *cancelingSink) Write(b *dataset.Block) error {
	s.countingSink.Write(b)
	if s.blocks == s.after {
		s.cancel()
	}
	return nil
}

// TestApplyShardedCancelMidStream is TestApplyStreamCancelMidStream for
// the ordered per-shard loop: canceling after two shards returns a
// StageError wrapping context.Canceled, stops issuing shards, and never
// flushes the sink.
func TestApplyShardedCancelMidStream(t *testing.T) {
	d, ms := shardedFixture(t, 2000, 100) // 20 shards
	key, err := BuildKey(d, Options{}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const cancelAfter = 2
		sink := &cancelingSink{cancel: cancel, after: cancelAfter}
		err := applySharded(ctx, key, ms, sink, 0, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error does not wrap context.Canceled: %v", workers, err)
		}
		var se *StageError
		if !errors.As(err, &se) || se.Stage != StageApply {
			t.Fatalf("workers=%d: error is not an apply StageError: %v", workers, err)
		}
		// Serially the loop stops before the next shard. With a fan-out
		// the shards already in flight may still land, at most one
		// window of them; the other ~15 shards must not.
		if sink.blocks < cancelAfter || sink.blocks > cancelAfter+workers {
			t.Fatalf("workers=%d: sink saw %d shards, want %d to %d", workers, sink.blocks, cancelAfter, cancelAfter+workers)
		}
		if sink.flushes != 0 {
			t.Fatalf("workers=%d: canceled stream flushed the sink", workers)
		}
	}
}

// TestApplyStreamContextPreCanceled asserts an already-canceled context
// stops the stream before any block is read.
func TestApplyStreamContextPreCanceled(t *testing.T) {
	d, err := synth.Covertype(rand.New(rand.NewSource(6)), 200)
	if err != nil {
		t.Fatal(err)
	}
	key, err := BuildKey(d, Options{}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := &countingSink{}
	err = ApplyStream(ctx, key, dataset.NewDatasetSource(d), sink, 0, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: got %v, want context.Canceled", err)
	}
	if sink.blocks != 0 {
		t.Fatalf("pre-canceled context still wrote %d blocks", sink.blocks)
	}
}
