package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"privtree/internal/dataset"
	"privtree/internal/parallel"
	"privtree/internal/runs"
	"privtree/internal/transform"
)

// noCtx is the background context the stage fan-outs run under; the
// pipeline has no cancellation surface of its own.
var noCtx = context.Background()

// Column is the per-attribute unit the pipeline stages operate on. A
// stage reads the fields earlier stages filled in and writes its own:
// profile fills Groups, choose fills Pieces, draw fills Key.
type Column struct {
	// Index is the attribute's position in the dataset schema.
	Index int
	// Name is the attribute name.
	Name string
	// Categorical marks a category-coded attribute; it skips the
	// numeric profile/choose stages and is keyed by a code permutation.
	Categorical bool
	// NumCategories is the declared category count of a categorical
	// column.
	NumCategories int
	// Groups is the profile-stage output: the sorted distinct values
	// with their label-run summary (Definition 6's class string
	// substrate).
	Groups []runs.ValueGroup
	// Pieces is the choose-stage output: the domain decomposition over
	// the group index space.
	Pieces []runs.Piece
	// Key is the draw-stage output: the finished per-attribute key.
	Key *transform.AttributeKey
}

// newColumn initializes the stage-independent identity of attribute a.
func newColumn(d *dataset.Dataset, a int) Column {
	c := Column{Index: a, Name: d.AttrNames[a], Categorical: d.IsCategorical(a)}
	if c.Categorical {
		c.NumCategories = d.NumCategories(a)
	}
	return c
}

// profileColumns fans the profile stage out over the worker pool with
// one pooled runs.ClassScratch per worker: worker w exclusively owns
// scratches[w], so the table is reused across that worker's columns
// without synchronization, and the scratches return to the pool for the
// next encode. Scratch reuse cannot perturb the output — every call
// overwrites the scratch before reading it and Groups aliases none of
// it — so the stage stays byte-identical at any worker count.
func profileColumns(d *dataset.Dataset, workers int) ([]Column, error) {
	cols := make([]Column, d.NumAttrs())
	scratches := make([]*runs.ClassScratch, max(1, min(workers, d.NumAttrs())))
	for w := range scratches {
		scratches[w] = runs.GetClassScratch()
	}
	err := parallel.ForEachWorker(noCtx, d.NumAttrs(), len(scratches), func(w, a int) error {
		cols[a] = newColumn(d, a)
		if !cols[a].Categorical {
			cols[a].Groups = scratches[w].ValueGroups(d.Cols[a], d.Labels, d.NumClasses())
		}
		return nil
	})
	for _, s := range scratches {
		runs.PutClassScratch(s)
	}
	return cols, err
}

// choose runs the choose-pieces stage: decompose the active domain per
// the configured strategy. Randomness (for ChooseBP/ChooseMaxMP cut
// positions) comes from rng; the caller sequences columns in attribute
// order.
func (c *Column) choose(opts Options, rng *rand.Rand) error {
	if c.Categorical {
		return nil // keyed by a code permutation; no domain pieces
	}
	if len(c.Groups) == 0 {
		return ErrNoValues
	}
	switch opts.Strategy {
	case StrategyNone:
		c.Pieces = []runs.Piece{{Lo: 0, Hi: len(c.Groups)}}
	case StrategyBP:
		c.Pieces = ChooseBP(rng, len(c.Groups), opts.Breakpoints)
	case StrategyMaxMP:
		c.Pieces = ChooseMaxMP(rng, c.Groups, opts.Breakpoints, opts.MinPieceWidth)
	default:
		return ErrUnknownStrategy
	}
	return nil
}

// draw runs the draw-functions stage: allocate output intervals to the
// pieces and draw an 𝓕_mono/𝓕_bi member for each, stitched under the
// global-(anti-)monotone invariant. Categorical columns draw a uniform
// derangement of their category codes instead.
func (c *Column) draw(opts Options, rng *rand.Rand) error {
	if c.Categorical {
		ak, err := drawCategorical(c.Name, c.NumCategories, rng)
		if err != nil {
			return err
		}
		c.Key = ak
		return nil
	}
	ak, err := drawNumeric(c.Name, c.Groups, c.Pieces, opts, rng)
	if err != nil {
		return err
	}
	c.Key = ak
	return nil
}

// verifyColumns fans the stitch/verify stage out over the worker pool:
// every attribute key must satisfy its structural invariants (ordered
// disjoint domain intervals, global-(anti-)monotone output order).
// Failures surface in attribute order.
func verifyColumns(cols []Column, workers int) error {
	return parallel.ForEach(noCtx, len(cols), workers, func(i int) error {
		if err := cols[i].Key.Validate(); err != nil {
			return &StageError{Stage: StageVerify, Attr: cols[i].Name, Err: err}
		}
		return nil
	})
}

// drawCategorical builds a random derangement (fixed-point-free
// permutation) of the attribute's category codes, so that — like the
// numeric transformations — every released value differs from the
// original. All declared codes are covered, so codes absent from the
// training data still encode consistently. A single-category attribute
// necessarily maps to itself.
func drawCategorical(attr string, k int, rng *rand.Rand) (*transform.AttributeKey, error) {
	domVals := make([]float64, k)
	outVals := make([]float64, k)
	perm := derangement(rng, k)
	for c := 0; c < k; c++ {
		domVals[c] = float64(c)
		outVals[c] = float64(perm[c])
	}
	piece, err := transform.NewPermutationPiece(domVals, outVals, 0, float64(k-1))
	if err != nil {
		return nil, err
	}
	return &transform.AttributeKey{Attr: attr, Categorical: true, Pieces: []*transform.Piece{piece}}, nil
}

// derangement samples a uniform fixed-point-free permutation of k
// elements by rejection (expected ~e attempts). k = 1 has none and
// returns the identity.
func derangement(rng *rand.Rand, k int) []int {
	if k < 2 {
		out := make([]int, k)
		for i := range out {
			out[i] = i
		}
		return out
	}
	for {
		perm := rng.Perm(k)
		fixed := false
		for i, p := range perm {
			if i == p {
				fixed = true
				break
			}
		}
		if !fixed {
			return perm
		}
	}
}

// drawNumeric allocates output intervals to the pieces and draws a
// function for each, honoring the global-(anti-)monotone invariant.
func drawNumeric(attr string, groups []runs.ValueGroup, pieces []runs.Piece, opts Options, rng *rand.Rand) (*transform.AttributeKey, error) {
	domLo := groups[0].Value
	domHi := groups[len(groups)-1].Value
	width := domHi - domLo
	if width <= 0 {
		width = 1
	}
	scale := opts.Scale
	if scale == 0 {
		scale = 0.5 + 1.5*rng.Float64()
	}
	totalOut := width * scale
	outStart := domLo + width*(rng.Float64()-0.5)

	// Allocate random output widths to the pieces and gaps from the
	// reserved gap fraction.
	n := len(pieces)
	pw := make([]float64, n)
	var sum float64
	for i := range pieces {
		// Log-normal output widths (σ≈1.1, roughly ×0.1–×10), drawn
		// independently of the piece's domain width, make the per-piece
		// slopes unpredictable: a curve fitted through a handful of
		// knowledge points cannot track pieces whose scales vary by two
		// orders of magnitude (Section 5's "uncertainty of the function
		// used in each piece"). Deliberately not proportional to piece
		// length — proportional widths would make the aggregate map hug
		// a smooth trend that curve fitting recovers.
		pw[i] = math.Exp(1.6 * rng.NormFloat64())
		sum += pw[i]
	}
	gw := make([]float64, n-1)
	var gsum float64
	for i := range gw {
		gw[i] = math.Exp(rng.NormFloat64())
		gsum += gw[i]
	}
	pieceSpace := totalOut * (1 - opts.GapFrac)
	gapSpace := totalOut * opts.GapFrac
	if n == 1 {
		pieceSpace = totalOut
		gapSpace = 0
	}

	// Compute ascending output intervals in domain order, then reverse
	// for the anti-monotone invariant.
	type span struct{ lo, hi float64 }
	spans := make([]span, n)
	at := outStart
	for i := range pieces {
		w := pieceSpace * pw[i] / sum
		spans[i] = span{at, at + w}
		at += w
		if i < n-1 && gsum > 0 {
			at += gapSpace * gw[i] / gsum
		}
	}
	if opts.Anti {
		// Mirror the spans around the center of the output range so the
		// first domain piece gets the highest outputs.
		lo, hi := spans[0].lo, spans[n-1].hi
		for i := range spans {
			spans[i] = span{lo + hi - spans[i].hi, lo + hi - spans[i].lo}
		}
	}

	ak := &transform.AttributeKey{Attr: attr, Anti: opts.Anti, Pieces: make([]*transform.Piece, n)}
	for i, p := range pieces {
		sp := spans[i]
		pg := groups[p.Lo:p.Hi]
		pc, err := drawPiece(pg, p, sp.lo, sp.hi, opts, rng)
		if err != nil {
			return nil, err
		}
		ak.Pieces[i] = pc
	}
	return ak, nil
}

// drawPiece draws the transformation of one piece.
func drawPiece(pg []runs.ValueGroup, p runs.Piece, outLo, outHi float64, opts Options, rng *rand.Rand) (*transform.Piece, error) {
	domLo := pg[0].Value
	domHi := pg[len(pg)-1].Value
	if p.Mono {
		// F_bi: random permutation of the piece's distinct values onto
		// jittered, evenly spaced output values (Section 5.2). This
		// blocks sorting attacks within the piece: O(N!) possibilities.
		m := len(pg)
		domVals := make([]float64, m)
		for i, g := range pg {
			domVals[i] = g.Value
		}
		outVals := make([]float64, m)
		step := (outHi - outLo) / float64(m)
		for i := range outVals {
			outVals[i] = outLo + (float64(i)+0.5+0.8*(rng.Float64()-0.5))*step
		}
		perm := rng.Perm(m)
		shuffled := make([]float64, m)
		for i, j := range perm {
			shuffled[i] = outVals[j]
		}
		return transform.NewPermutationPiece(domVals, shuffled, outLo, outHi)
	}
	shape, err := randomShape(opts.Families, rng)
	if err != nil {
		return nil, err
	}
	// An anti-monotone function inside a piece is only sound when the
	// piece's class substring is a single label: reversing it then
	// leaves the class string unchanged (cf. Figure 4). Under the global
	// anti-monotone invariant the whole attribute reverses, so every
	// non-permutation piece must be anti-monotone instead.
	if opts.Anti {
		return transform.NewAntiMonotonePiece(domLo, domHi, outLo, outHi, shape)
	}
	if singleLabel(pg) && rng.Float64() < opts.PieceAntiProb {
		return transform.NewAntiMonotonePiece(domLo, domHi, outLo, outHi, shape)
	}
	return transform.NewMonotonePiece(domLo, domHi, outLo, outHi, shape)
}

// singleLabel reports whether every tuple covered by the groups carries
// the same class label (the condition under which reversing the piece
// preserves the class string).
func singleLabel(pg []runs.ValueGroup) bool {
	for _, g := range pg {
		if !g.Mono || g.Label != pg[0].Label {
			return false
		}
	}
	return true
}

// randomShape draws a shape from the named families with randomized
// parameters.
func randomShape(families []string, rng *rand.Rand) (transform.Shape, error) {
	name := families[rng.Intn(len(families))]
	switch name {
	case "linear":
		return transform.LinearShape{}, nil
	case "power":
		return transform.PowerShape{Gamma: 1.5 + 2.5*rng.Float64()}, nil
	case "log":
		return transform.LogShape{C: 2 + 48*rng.Float64()}, nil
	case "sqrtlog":
		return transform.SqrtLogShape{C: 2 + 48*rng.Float64()}, nil
	case "exp":
		k := 0.5 + 2.5*rng.Float64()
		if rng.Intn(2) == 0 {
			k = -k
		}
		return transform.ExpShape{K: k}, nil
	default:
		return nil, fmt.Errorf("shape family %q: %w", name, transform.ErrUnknownShape)
	}
}
