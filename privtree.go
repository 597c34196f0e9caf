// Package privtree implements outcome-preserving privacy transformations
// for decision-tree mining, reproducing "Preservation Of Patterns and
// Input-Output Privacy" (Bu, Lakshmanan, Ng, Ramesh — ICDE 2007).
//
// The library serves the data-custodian scenario: the custodian owns a
// training data set D, wants an untrusted service to mine a decision
// tree, and needs three guarantees at once:
//
//   - no outcome change — the decoded tree is exactly the tree that
//     direct mining of D would produce (Theorems 1–2 of the paper);
//   - input privacy — the transformed data D' discloses neither the
//     original attribute values (domain disclosure) nor their
//     cross-attribute associations (subspace association disclosure);
//   - output privacy — the mined tree's paths are encoded, so the
//     pattern itself is protected from the service provider.
//
// The mechanism is the piecewise (anti-)monotone framework of Section 5:
// each attribute's active domain is decomposed into pieces — at random
// breakpoints (ChooseBP) or maximal monochromatic pieces (ChooseMaxMP) —
// each piece is encoded by a randomly drawn monotone function or, for
// monochromatic pieces, an arbitrary bijection, and the pieces are
// stitched together under the global-(anti-)monotone invariant that
// preserves per-attribute class strings and hence the mined tree.
//
// # Basic usage
//
//	d, _ := privtree.ReadCSVFile("train.csv")
//	enc, key, _ := privtree.Encode(d, privtree.EncodeOptions{}, 42)
//	// ... ship enc to the mining service ...
//	mined, _ := privtree.Mine(enc, privtree.TreeConfig{})
//	decoded, _ := privtree.DecodeTree(mined, key, d)
//	// decoded is identical to privtree.Mine(d, ...) — guaranteed.
//
// The subpackages under internal implement the full evaluation framework
// of the paper: attack models (curve fitting over knowledge points,
// sorting, combination), the three disclosure-risk metrics, a
// random-perturbation baseline, and calibrated synthetic workloads; the
// cmd/experiments binary regenerates every table and figure.
package privtree

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"privtree/internal/dataset"
	"privtree/internal/pipeline"
	"privtree/internal/transform"
	"privtree/internal/tree"
)

// Dataset is a relation instance with numeric attributes and a
// categorical class label per tuple.
type Dataset = dataset.Dataset

// NewDataset creates an empty dataset with the given attribute and class
// names; fill it with Append.
func NewDataset(attrNames, classNames []string) *Dataset {
	return dataset.New(attrNames, classNames)
}

// ReadCSV parses a dataset whose last column is the class label.
func ReadCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// ReadCSVFile is ReadCSV over a file path.
func ReadCSVFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// WriteCSVFile writes a dataset as CSV.
func WriteCSVFile(d *Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ShardedSource streams a sharded data set — CSV or binary shard files
// described by a manifest — in shard order, and exposes the per-shard
// structure the out-of-core encode and mine fan out over.
type ShardedSource = dataset.ShardedSource

// Relation is what BuildKey and Mine take: an in-memory *Dataset or an
// out-of-core *ShardedSource. Each picks the kernel for the form it is
// given; keys and trees are byte-identical either way.
type Relation = dataset.Relation

// OpenSharded opens a sharded data set by its manifest path (see
// cmd/datagen -shards for writing one). Shard paths in the manifest
// resolve relative to the manifest's directory.
func OpenSharded(manifestPath string) (*ShardedSource, error) {
	return dataset.OpenSharded(manifestPath)
}

// ConvertSharded rewrites a sharded data set into the requested shard
// format ("csv" or "bin") under outPrefix, preserving row order, shard
// boundaries and the manifest's class order exactly, and returns the
// new manifest's path. Checksums are recomputed for the new bytes; the
// source's own checksums and row counts are verified on the way
// through.
func ConvertSharded(manifestPath, outPrefix, format string) (string, error) {
	return dataset.ConvertSharded(manifestPath, outPrefix, format)
}

// ReadShardedFile materializes a sharded data set into memory — the
// bridge to the in-memory API (DecodeTree, SameOutcome, ...) for sets
// that do fit. BuildKey and Mine take the ShardedSource itself.
func ReadShardedFile(manifestPath string) (*Dataset, error) {
	src, err := dataset.OpenSharded(manifestPath)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	d, err := dataset.Collect(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	return d, nil
}

// Key is the custodian's secret: the complete piecewise transformation
// of every attribute. Keep it private; it decodes both D' and the mined
// tree.
type Key = transform.Key

// EncodeOptions configures the randomized piecewise encoder. The zero
// value selects ChooseMaxMP with at least 20 breakpoints — the
// configuration the paper's experiments recommend.
type EncodeOptions = pipeline.Options

// Breakpoint strategies (EncodeOptions.Strategy).
const (
	// StrategyNone encodes each attribute with a single monotone
	// function — the no-breakpoint baseline.
	StrategyNone = pipeline.StrategyNone
	// StrategyBP picks breakpoints uniformly at random (ChooseBP).
	StrategyBP = pipeline.StrategyBP
	// StrategyMaxMP exploits maximal monochromatic pieces (ChooseMaxMP),
	// the paper's strongest configuration.
	StrategyMaxMP = pipeline.StrategyMaxMP
)

// Encode draws a fresh piecewise (anti-)monotone key for every attribute
// of d and returns the transformed data set D' together with the key.
// The same seed reproduces the same key at any EncodeOptions.Workers
// setting.
func Encode(d *Dataset, opts EncodeOptions, seed int64) (*Dataset, *Key, error) {
	return pipeline.Encode(d, opts, rand.New(rand.NewSource(seed)))
}

// BuildKey runs the key-construction stages only (profile → choose →
// draw → verify), without transforming any data. Over a ShardedSource
// the profile streams each shard once and merges per-shard statistics,
// never materializing the relation; the key is byte-identical to the
// in-memory one at the same seed, for any worker and shard count.
func BuildKey(rel Relation, opts EncodeOptions, seed int64) (*Key, error) {
	return pipeline.BuildKey(rel, opts, rand.New(rand.NewSource(seed)))
}

// MarshalKey serializes a key to the versioned JSON wire format for
// storage in the custodian's vault.
func MarshalKey(k *Key) ([]byte, error) { return transform.MarshalKey(k) }

// UnmarshalKey restores a key serialized by MarshalKey. Keys written by
// an incompatible wire version are rejected with an error wrapping
// transform.ErrKeyVersion.
func UnmarshalKey(data []byte) (*Key, error) { return transform.UnmarshalKey(data) }

// SaveKey writes a key to a file with private permissions — the key IS
// the secret; whoever holds it can decode D' and the mined tree.
func SaveKey(k *Key, path string) error {
	data, err := transform.MarshalKey(k)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o600)
}

// LoadKey reads a key written by SaveKey, possibly by another process:
// the wire format is versioned and self-contained, so a key marshaled
// in one process round-trips and decodes identically in another.
func LoadKey(path string) (*Key, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	k, err := transform.UnmarshalKey(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return k, nil
}

// Tree is a mined decision tree.
type Tree = tree.Tree

// TreeConfig controls decision-tree induction. The zero value uses the
// gini index with unlimited depth. TreeConfig.Workers bounds the
// goroutines the per-node split search fans out over on large nodes;
// the mined tree is identical at any setting.
type TreeConfig = tree.Config

// Split criteria (TreeConfig.Criterion) — the two criteria for which the
// no-outcome-change guarantee is proved.
const (
	// Gini selects gini-index split selection.
	Gini = tree.Gini
	// Entropy selects information-gain split selection.
	Entropy = tree.Entropy
)

// Mine builds a decision tree. Run it on D' at the mining service, or on
// D directly for comparison. A Dataset is mined in memory over
// presorted attribute lists; a ShardedSource level by level, scanning
// each shard once per tree level, never materializing it. The tree is
// byte-identical either way, at any shard and worker count.
func Mine(rel Relation, cfg TreeConfig) (*Tree, error) {
	if d, ok := rel.(*Dataset); ok {
		return tree.Build(d, cfg)
	}
	return tree.BuildSharded(rel.(*ShardedSource), cfg)
}

// MarshalTree serializes a tree to JSON — the wire format the mining
// service uses to return the encoded classifier.
func MarshalTree(t *Tree) ([]byte, error) { return tree.Marshal(t) }

// UnmarshalTree restores a tree serialized by MarshalTree.
func UnmarshalTree(data []byte) (*Tree, error) { return tree.Unmarshal(data) }

// DecodeTree translates a tree mined from D' back into the original
// attribute space using the custodian's key and original data
// (Theorem 2). The result is identical — structure, split attributes and
// behavior — to the tree direct mining of the original data produces.
func DecodeTree(t *Tree, key *Key, orig *Dataset) (*Tree, error) {
	return tree.DecodeWithData(t, key, orig)
}

// DecodeTreeKeyOnly translates a tree using only the key (pure function
// inversion, f^{-1} per node). Exact — up to floating-point resolution
// inside heavily compressed pieces — for keys without locally
// order-reversing pieces (StrategyNone/StrategyBP with per-piece
// anti-monotone functions disabled). Under StrategyMaxMP a threshold
// that lands between two table outputs of a permutation piece can
// decode to the wrong side of that (single-class) piece — prefer
// DecodeTree, which the custodian can always run since they hold D.
func DecodeTreeKeyOnly(t *Tree, key *Key) (*Tree, error) {
	return tree.Decode(t, key)
}

// SameOutcome reports whether two trees classify the given data set
// identically at every node — the exact sense of Theorem 2's S = T.
func SameOutcome(a, b *Tree, d *Dataset) bool { return tree.EquivalentOn(a, b, d) }

// CanAppend reports whether a new batch of tuples can be encoded with an
// existing key without voiding the no-outcome-change guarantee for the
// combined data: the batch must stay inside each attribute's dynamic
// range, repeat only table values inside bijection-encoded monochromatic
// pieces, keep those pieces single-label, and use declared category
// codes. On nil, encode the combined data with key.Apply and keep
// mining; otherwise re-encode with a fresh key.
func CanAppend(key *Key, old, batch *Dataset) error {
	return transform.VerifyAppend(key, old, batch)
}

// VerifyNoOutcomeChange runs the full round trip — encode, mine both
// sides, decode, compare — and returns an error if the guarantee is
// violated. Useful as a self-check after changing encoder options.
func VerifyNoOutcomeChange(d *Dataset, cfg TreeConfig, opts EncodeOptions, seed int64) error {
	enc, key, err := Encode(d, opts, seed)
	if err != nil {
		return fmt.Errorf("privtree: encode: %w", err)
	}
	if err := transform.VerifyClassStrings(d, enc, key); err != nil {
		return fmt.Errorf("privtree: %w", err)
	}
	mined, err := tree.Build(enc, cfg)
	if err != nil {
		return fmt.Errorf("privtree: mining encoded: %w", err)
	}
	_, diff, err := tree.DecodeAndCompare(mined, key, d, cfg)
	if err != nil {
		return fmt.Errorf("privtree: %w", err)
	}
	if diff != "" {
		return fmt.Errorf("privtree: decoded tree differs from direct mining at %s", diff)
	}
	return nil
}
