// Package pipeline is the staged columnar encode path of the
// repository: it decomposes the paper's Section 5 encoder into explicit
// stages — profile → choose pieces → draw functions → stitch/verify →
// apply — each operating on a per-attribute Column unit, and fans the
// stages that consume no randomness out on the internal/parallel pool.
//
// The stages are:
//
//   - profile: sort each attribute's A-projection and group it into
//     value groups (the class-string substrate of Definition 6). Pure
//     per-attribute computation, fanned out over the worker pool.
//   - choose pieces: decompose the active domain with ChooseBP /
//     ChooseMaxMP (Figures 5–6) or keep it whole (StrategyNone).
//   - draw functions: draw 𝓕_mono/𝓕_bi members per piece and stitch
//     them under the global-(anti-)monotone invariant (Definition 8),
//     yielding the attribute's transform.AttributeKey.
//   - stitch/verify: validate the structural invariants of every
//     attribute key (ordered disjoint intervals, global invariant).
//     Fanned out; failures are reported in attribute order.
//   - apply: transform the data under the finished key, fanned out per
//     attribute (Apply is pure); see ApplyCSV for the block-wise
//     variant over larger-than-memory data.
//
// Determinism contract: the choose and draw stages are the only ones
// that consume randomness. They run on the calling goroutine in
// attribute order against the caller's single *rand.Rand, exactly as
// the historical monolithic encoder did, so the pipeline's output is
// byte-identical to the pre-pipeline encoder for a given seed and
// byte-identical at any worker count (the fanned-out stages are pure
// and reduce in attribute order, per the PR-1 seeding discipline).
// The randomized section touches only the O(distinct values) domain
// summary; the O(n log n) profile sort and the O(n) apply sweep — the
// stages that dominate on real data — are the ones that fan out.
package pipeline

import (
	"fmt"
	"math/rand"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
	"privtree/internal/runs"
	"privtree/internal/transform"
)

// Strategy selects how breakpoints are chosen when encoding an
// attribute.
type Strategy int

const (
	// StrategyMaxMP grows maximal monochromatic pieces and tops up with
	// random breakpoints (Procedure ChooseMaxMP). It is the zero value:
	// the paper's experiments show it dominates, so Options{} selects
	// it.
	StrategyMaxMP Strategy = iota
	// StrategyBP chooses breakpoints uniformly at random among the
	// distinct values (Procedure ChooseBP).
	StrategyBP
	// StrategyNone encodes the whole domain as a single piece with one
	// (anti-)monotone function — the baseline of Section 3/4 and the
	// first bar of Figure 9.
	StrategyNone
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "none"
	case StrategyBP:
		return "choosebp"
	case StrategyMaxMP:
		return "choosemaxmp"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy returns the strategy the custodian's tools name s:
// "none", "bp" or "maxmp". Any other name, the empty one included,
// fails with ErrUnknownStrategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "none":
		return StrategyNone, nil
	case "bp":
		return StrategyBP, nil
	case "maxmp":
		return StrategyMaxMP, nil
	}
	return 0, fmt.Errorf("strategy %q (none, bp, maxmp): %w", s, ErrUnknownStrategy)
}

// Options configures the randomized encoder.
type Options struct {
	// Strategy selects the breakpoint procedure. Default StrategyMaxMP.
	Strategy Strategy
	// Breakpoints is the desired number of pieces w. The paper's
	// experiments use a minimum of 20. Default 20.
	Breakpoints int
	// MinPieceWidth is the minimum number of distinct values for a
	// monochromatic piece to be exploited (Section 5.2 suggests 5).
	// Default 1.
	MinPieceWidth int
	// Families restricts the monotone shape families drawn for
	// non-monochromatic pieces. Empty means all of ShapeFamilies().
	Families []string
	// Anti selects the global-anti-monotone invariant for every
	// attribute. The class strings are reversed (Lemma 1); the decoded
	// tree is still exact.
	Anti bool
	// PieceAntiProb is the probability of using an anti-monotone
	// function on a piece whose class substring is a single label
	// (always sound there, cf. Figure 4). Default 0.25; negative
	// disables per-piece anti-monotone functions, which makes key-only
	// tree decoding exact for StrategyNone/StrategyBP keys (see
	// tree.Decode).
	PieceAntiProb float64
	// Scale stretches the total output range relative to the domain
	// width. 0 draws a random scale in [0.5, 2.0] per attribute.
	Scale float64
	// GapFrac is the fraction of output space reserved for inter-piece
	// gaps. Default 0.25.
	GapFrac float64
	// Workers bounds the goroutines the profile, verify and apply
	// stages fan out over. 0 resolves through PRIVTREE_WORKERS and then
	// GOMAXPROCS; 1 forces serial execution. The encoded output is
	// byte-identical at any setting: randomness is consumed only by the
	// serial choose/draw stages.
	Workers int
}

// normalize fills in the documented defaults. The pipeline normalizes
// exactly once at its entry points (Encode, EncodeColumn); the stages
// assume already-normalized options and never re-default.
func (o Options) normalize() Options {
	if o.Breakpoints == 0 {
		o.Breakpoints = 20
	}
	if o.MinPieceWidth == 0 {
		o.MinPieceWidth = 1
	}
	if len(o.Families) == 0 {
		o.Families = transform.ShapeFamilies()
	}
	if o.PieceAntiProb == 0 {
		o.PieceAntiProb = 0.25
	}
	if o.PieceAntiProb < 0 {
		o.PieceAntiProb = 0
	}
	if o.GapFrac == 0 {
		o.GapFrac = 0.25
	}
	return o
}

// Encode runs the full pipeline: it transforms every attribute of d
// with a freshly drawn piecewise (anti-)monotone key and returns the
// transformed data set D' together with the custodian's secret key.
// The same rng state reproduces the same key at any worker count.
func Encode(d *dataset.Dataset, opts Options, rng *rand.Rand) (*dataset.Dataset, *transform.Key, error) {
	key, err := BuildKey(d, opts, rng)
	if err != nil {
		return nil, nil, err
	}
	out, err := Apply(d, key, parallel.ResolveWorkers(opts.Workers))
	if err != nil {
		return nil, nil, err
	}
	return out, key, nil
}

// BuildKey runs the key-construction stages of the pipeline (profile →
// choose → draw → verify) over rel without applying the key to the
// data. Use it when the data will be encoded block-wise afterwards
// (ApplyCSV). BuildKeyArtifacts additionally returns the per-attribute
// stage artifacts the conformance layer checks.
func BuildKey(rel dataset.Relation, opts Options, rng *rand.Rand) (*transform.Key, error) {
	key, _, err := BuildKeyArtifacts(rel, opts, rng)
	return key, err
}

// EncodeColumn draws a piecewise transformation key for attribute a of
// d alone — the single-attribute entry point of the pipeline (used by
// the risk experiments, which never materialize the whole transformed
// data set). Options are normalized here, once.
func EncodeColumn(d *dataset.Dataset, a int, opts Options, rng *rand.Rand) (*transform.AttributeKey, error) {
	// Counter only, no span: the risk grids call this per (cell, trial,
	// attribute), so span aggregation at this granularity would be all
	// lock traffic and no signal.
	obs.Add("pipeline.encode_column", 1)
	opts = opts.normalize()
	col := newColumn(d, a)
	if !col.Categorical {
		col.Groups = runs.AttrGroups(d, a)
	}
	if err := col.choose(opts, rng); err != nil {
		return nil, &StageError{Stage: StageChoose, Attr: col.Name, Err: err}
	}
	if err := col.draw(opts, rng); err != nil {
		return nil, &StageError{Stage: StageDraw, Attr: col.Name, Err: err}
	}
	if err := col.Key.Validate(); err != nil {
		return nil, &StageError{Stage: StageVerify, Attr: col.Name, Err: err}
	}
	return col.Key, nil
}

// Apply transforms every attribute value of d under key, fanning out
// per attribute over workers goroutines. The result is byte-identical
// to the serial transform.Key.Apply at any worker count.
func Apply(d *dataset.Dataset, key *transform.Key, workers int) (*dataset.Dataset, error) {
	sch, err := OutputSchema(key, d.Schema())
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan("encode/apply")
	defer sp.End()
	obs.Add("pipeline.apply.values", int64(d.NumTuples())*int64(d.NumAttrs()))
	out := d.Clone()
	err = parallel.ForEach(noCtx, d.NumAttrs(), workers, func(a int) error {
		col := out.Cols[a]
		key.Attrs[a].ApplyColumn(col, col)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Category renaming mutates shared dataset metadata; do it serially
	// after the value sweep, with OutputSchema's opaque names.
	for a, ak := range key.Attrs {
		if !ak.Categorical {
			continue
		}
		if err := out.MarkCategorical(a, sch.Categorical[a]); err != nil {
			return nil, &StageError{Stage: StageApply, Attr: ak.Attr, Err: err}
		}
	}
	return out, nil
}
