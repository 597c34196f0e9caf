package pipeline

import (
	"math/rand"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
	"privtree/internal/runs"
	"privtree/internal/transform"
)

// Artifact is the checkable output of the pipeline's stitch/verify
// stage for one attribute: the profile-stage value groups, the
// choose-stage domain decomposition (over the group index space), and
// the finished attribute key. The conformance layer consumes artifacts
// to verify the choose/draw stages against each other — e.g. that a
// piece the chooser marked monochromatic really is, and that the drawn
// key's piece boundaries land exactly on the chosen group values —
// without re-deriving the pipeline's intermediate state.
type Artifact struct {
	// Attr is the attribute name; Index its schema position.
	Attr  string
	Index int
	// Categorical marks a code-permutation attribute; Groups and Pieces
	// are empty for it.
	Categorical bool
	// Groups is the profile-stage output: sorted distinct values with
	// their label-run summary (Definition 6's substrate).
	Groups []runs.ValueGroup
	// Pieces is the choose-stage output: the decomposition of the group
	// index space (Figures 5–6).
	Pieces []runs.Piece
	// Key is the draw-stage output.
	Key *transform.AttributeKey
}

// BuildKeyArtifacts is BuildKey plus the per-attribute stage artifacts:
// it runs profile → choose → draw → verify and returns both the
// finished key and, for every attribute, the intermediate state the
// verify stage checked it against. Same determinism contract as
// BuildKey: identical output for a given rng state at any worker count.
//
// The profile stage is the one that reads the data, and it has a
// kernel per form of relation: profileColumns groups a Dataset's
// columns in place, profileSharded streams the shards twice. Each is
// the faster on its own input (DESIGN §5g). Both hand assembleKey the
// same Groups, so the key does not depend on the form.
func BuildKeyArtifacts(rel dataset.Relation, opts Options, rng *rand.Rand) (*transform.Key, []Artifact, error) {
	nAttrs := rel.Schema().NumAttrs()
	if nAttrs == 0 {
		return nil, nil, &StageError{Stage: StageProfile, Err: dataset.ErrNoAttributes}
	}
	opts = opts.normalize()
	workers := parallel.ResolveWorkers(opts.Workers)

	// Spans time the stages; they read clocks and nothing else, so a
	// recorder cannot perturb the rng stream or the stage outputs (the
	// no-op path skips even the clock reads).
	root := obs.StartSpan("encode")
	defer root.End()
	obs.Add("pipeline.attrs", int64(nAttrs))

	sp := root.Child("profile")
	var cols []Column
	var err error
	if d, ok := rel.(*dataset.Dataset); ok {
		cols, err = profileColumns(d, workers)
	} else {
		src := rel.(*dataset.ShardedSource)
		obs.Add("pipeline.shards", int64(src.NumShards()))
		cols, err = profileSharded(src, workers)
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	return assembleKey(root, cols, opts, rng, workers)
}

// assembleKey runs the stages downstream of profile — choose → draw →
// verify — over already-profiled columns and packages the key and
// artifacts. Both profile front-ends (the in-memory profileColumns and
// the out-of-core profileSharded) feed it, which is what pins the
// sharded encode to the in-memory one: identical Groups in, identical
// rng consumption, identical key bytes out.
func assembleKey(root *obs.Span, cols []Column, opts Options, rng *rand.Rand, workers int) (*transform.Key, []Artifact, error) {
	// Randomized section: choose and draw interleave per attribute, in
	// attribute order, on the caller's stream — see the package comment
	// for why this section is serial.
	sp := root.Child("choose+draw")
	for i := range cols {
		if err := cols[i].choose(opts, rng); err != nil {
			sp.End()
			return nil, nil, &StageError{Stage: StageChoose, Attr: cols[i].Name, Err: err}
		}
		if err := cols[i].draw(opts, rng); err != nil {
			sp.End()
			return nil, nil, &StageError{Stage: StageDraw, Attr: cols[i].Name, Err: err}
		}
	}
	sp.End()

	key := &transform.Key{Attrs: make([]*transform.AttributeKey, len(cols))}
	arts := make([]Artifact, len(cols))
	pieces := int64(0)
	for i := range cols {
		key.Attrs[i] = cols[i].Key
		pieces += int64(len(cols[i].Pieces))
		arts[i] = Artifact{
			Attr:        cols[i].Name,
			Index:       cols[i].Index,
			Categorical: cols[i].Categorical,
			Groups:      cols[i].Groups,
			Pieces:      cols[i].Pieces,
			Key:         cols[i].Key,
		}
	}
	obs.Add("pipeline.pieces", pieces)
	sp = root.Child("verify")
	err := verifyColumns(cols, workers)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	return key, arts, nil
}
