package dataset

import "io"

// Relation is a whole relation instance that can be read from the
// start any number of times, unlike a Source, which is one pass. The
// custodian's operations — building a key, encoding, mining — take a
// Relation and pick their kernel from its form, so the choice between
// memory and disk is made once, where the relation is opened. Only
// *Dataset (in memory) and *ShardedSource (out of core, at most one
// shard per worker resident) satisfy it.
type Relation interface {
	// Schema describes the columns.
	Schema() *Schema
	// NumTuples returns the number of tuples.
	NumTuples() int
	// Rows returns a fresh Source over every tuple, in order.
	Rows() Source
	relation()
}

func (*Dataset) relation()       {}
func (*ShardedSource) relation() {}

// Rows implements Relation.
func (d *Dataset) Rows() Source { return NewDatasetSource(d) }

// NumTuples implements Relation: the tuple count the manifest
// declares, as Total.
func (s *ShardedSource) NumTuples() int { return s.Total() }

// Rows implements Relation: a reader of its own over the same shards,
// independent of how far s itself has been read.
func (s *ShardedSource) Rows() Source {
	r := NewShardedSource(s.m, s.dir)
	r.workers = s.workers
	return r
}

// Materialize returns rel in memory: a *Dataset as it is, a sharded
// set read whole.
func Materialize(rel Relation) (*Dataset, error) {
	if d, ok := rel.(*Dataset); ok {
		return d, nil
	}
	return Collect(rel.Rows())
}

// Collect drains src into a Dataset.
func Collect(src Source) (*Dataset, error) {
	col := NewCollector(src.Schema())
	for {
		blk, err := src.Next(0)
		if err == io.EOF { // a read error that wraps io.EOF is no clean end
			return col.Dataset()
		}
		if err != nil {
			return nil, err
		}
		if err := col.Write(blk); err != nil {
			return nil, err
		}
	}
}
