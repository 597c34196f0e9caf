package pipeline

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestShardedByteIdentityAtHighWorkerCounts is the sharded counterpart
// of TestEncodeByteIdentityAtHighWorkerCounts: many more workers than
// shards, tiny shards, every strategy, run under -race in CI's stress
// job. The workers=1 encode over the single-shard set is the
// reference; every (strategy, workers, sharding) combination must
// reproduce both key and encoded CSV byte for byte.
func TestShardedByteIdentityAtHighWorkerCounts(t *testing.T) {
	d, one := shardedFixture(t, 120, 120)         // 1 shard
	many := writeShardedSet(t, d, t.TempDir(), 9) // 14 tiny shards
	for _, strat := range []Strategy{StrategyNone, StrategyBP, StrategyMaxMP} {
		opts := Options{Strategy: strat, Workers: 1}
		refKey, err := BuildKey(one, opts, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		refKB := keyBytes(t, refKey)
		refCSV := applyShardedCSV(t, refKey, one, 0, 1)
		for _, workers := range []int{2, 8, 32} {
			opts.Workers = workers
			key, err := BuildKey(many, opts, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatalf("%v workers=%d: %v", strat, workers, err)
			}
			if !bytes.Equal(keyBytes(t, key), refKB) {
				t.Errorf("%v workers=%d: sharded key differs from single-shard workers=1", strat, workers)
			}
			if got := applyShardedCSV(t, key, many, 5, workers); !bytes.Equal(got, refCSV) {
				t.Errorf("%v workers=%d: encoded bytes differ from single-shard workers=1", strat, workers)
			}
		}
	}
}
