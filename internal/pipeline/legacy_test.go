package pipeline

// This file carries a verbatim, test-only copy of the monolithic
// encoder the staged pipeline replaced. It exists to pin the refactor's
// central contract: for any seed, the pipeline's key and encoded data
// are byte-identical to what the historical transform.Encode produced.
// Do not "improve" the legacy functions — their draw order IS the spec.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/runs"
	"privtree/internal/synth"
	"privtree/internal/transform"
)

// legacyEncode is the historical transform.Encode, verbatim (modulo
// package qualification of the transform types).
func legacyEncode(d *dataset.Dataset, opts Options, rng *rand.Rand) (*dataset.Dataset, *transform.Key, error) {
	if d.NumAttrs() == 0 {
		return nil, nil, errors.New("transform: dataset has no attributes")
	}
	key := &transform.Key{Attrs: make([]*transform.AttributeKey, d.NumAttrs())}
	for a := 0; a < d.NumAttrs(); a++ {
		ak, err := legacyEncodeAttr(d, a, opts, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("transform: attribute %q: %w", d.AttrNames[a], err)
		}
		key.Attrs[a] = ak
	}
	out, err := key.Apply(d)
	if err != nil {
		return nil, nil, err
	}
	return out, key, nil
}

// legacyEncodeAttr is the historical transform.EncodeAttr, verbatim.
func legacyEncodeAttr(d *dataset.Dataset, a int, opts Options, rng *rand.Rand) (*transform.AttributeKey, error) {
	opts = opts.normalize() // historical withDefaults; consumes no randomness
	if d.IsCategorical(a) {
		return legacyEncodeCategorical(d, a, rng)
	}
	groups := legacyGroupValues(d, a)
	if len(groups) == 0 {
		return nil, errors.New("transform: attribute has no values")
	}
	var pieces []runs.Piece
	switch opts.Strategy {
	case StrategyNone:
		pieces = []runs.Piece{{Lo: 0, Hi: len(groups)}}
	case StrategyBP:
		pieces = ChooseBP(rng, len(groups), opts.Breakpoints)
	case StrategyMaxMP:
		pieces = ChooseMaxMP(rng, groups, opts.Breakpoints, opts.MinPieceWidth)
	default:
		return nil, fmt.Errorf("transform: unknown strategy %v", opts.Strategy)
	}
	return legacyBuildKey(d.AttrNames[a], groups, pieces, opts, rng)
}

// legacyGroupValues is the historical profile: sort the A-projection
// by (value, label), then fold runs of equal values into one group
// each, the group taking the label of its first tuple.
func legacyGroupValues(d *dataset.Dataset, a int) []runs.ValueGroup {
	type tuple struct {
		value float64
		label int
	}
	proj := make([]tuple, d.NumTuples())
	for i, v := range d.Cols[a] {
		proj[i] = tuple{v, d.Labels[i]}
	}
	sort.Slice(proj, func(i, j int) bool {
		if proj[i].value != proj[j].value {
			return proj[i].value < proj[j].value
		}
		return proj[i].label < proj[j].label
	})
	var out []runs.ValueGroup
	for _, p := range proj {
		if n := len(out); n > 0 && out[n-1].Value == p.value {
			g := &out[n-1]
			g.Count++
			if p.label != g.Label {
				g.Mono = false
			}
			continue
		}
		out = append(out, runs.ValueGroup{Value: p.value, Count: 1, Mono: true, Label: p.label})
	}
	return out
}

func legacyEncodeCategorical(d *dataset.Dataset, a int, rng *rand.Rand) (*transform.AttributeKey, error) {
	k := d.NumCategories(a)
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
	return &transform.AttributeKey{Attr: d.AttrNames[a], Categorical: true, Pieces: []*transform.Piece{piece}}, nil
}

func legacyBuildKey(attr string, groups []runs.ValueGroup, pieces []runs.Piece, opts Options, rng *rand.Rand) (*transform.AttributeKey, error) {
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

	n := len(pieces)
	pw := make([]float64, n)
	var sum float64
	for i := range pieces {
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
		lo, hi := spans[0].lo, spans[n-1].hi
		for i := range spans {
			spans[i] = span{lo + hi - spans[i].hi, lo + hi - spans[i].lo}
		}
	}

	ak := &transform.AttributeKey{Attr: attr, Anti: opts.Anti, Pieces: make([]*transform.Piece, n)}
	for i, p := range pieces {
		sp := spans[i]
		pg := groups[p.Lo:p.Hi]
		pc, err := legacyBuildPiece(pg, p, sp.lo, sp.hi, opts, rng)
		if err != nil {
			return nil, err
		}
		ak.Pieces[i] = pc
	}
	if err := ak.Validate(); err != nil {
		return nil, err
	}
	return ak, nil
}

func legacyBuildPiece(pg []runs.ValueGroup, p runs.Piece, outLo, outHi float64, opts Options, rng *rand.Rand) (*transform.Piece, error) {
	domLo := pg[0].Value
	domHi := pg[len(pg)-1].Value
	if p.Mono {
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
	if opts.Anti {
		return transform.NewAntiMonotonePiece(domLo, domHi, outLo, outHi, shape)
	}
	if singleLabel(pg) && rng.Float64() < opts.PieceAntiProb {
		return transform.NewAntiMonotonePiece(domLo, domHi, outLo, outHi, shape)
	}
	return transform.NewMonotonePiece(domLo, domHi, outLo, outHi, shape)
}

// legacyWorkloads builds the synthetic workloads the byte-identity
// sweep runs over: the calibrated covertype profile (with and without
// the categorical extension), census, and wdbc.
func legacyWorkloads(t *testing.T, n int) map[string]*dataset.Dataset {
	t.Helper()
	out := map[string]*dataset.Dataset{}
	for name, gen := range map[string]func(*rand.Rand, int) (*dataset.Dataset, error){
		"covertype":      synth.Covertype,
		"covertype-full": synth.CovertypeFull,
		"census":         synth.Census,
		"wdbc":           synth.WDBC,
	} {
		d, err := gen(rand.New(rand.NewSource(17)), n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = d
	}
	return out
}

// TestPipelineByteIdenticalToLegacyEncoder pins the refactor contract:
// for fixed seeds across workloads, strategies and invariant directions,
// the staged pipeline reproduces the historical monolithic encoder's
// key and encoded data set byte for byte.
func TestPipelineByteIdenticalToLegacyEncoder(t *testing.T) {
	workloads := legacyWorkloads(t, 400)
	for name, d := range workloads {
		for _, strat := range []Strategy{StrategyNone, StrategyBP, StrategyMaxMP} {
			for _, anti := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					opts := Options{Strategy: strat, Breakpoints: 8, MinPieceWidth: 3, Anti: anti}

					wantEnc, wantKey, wantErr := legacyEncode(d, opts, rand.New(rand.NewSource(seed)))
					gotEnc, gotKey, gotErr := Encode(d, opts, rand.New(rand.NewSource(seed)))
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s/%v/anti=%v/seed=%d: legacy err %v, pipeline err %v",
							name, strat, anti, seed, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}

					wantBlob, err := transform.MarshalKey(wantKey)
					if err != nil {
						t.Fatal(err)
					}
					gotBlob, err := transform.MarshalKey(gotKey)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wantBlob, gotBlob) {
						t.Fatalf("%s/%v/anti=%v/seed=%d: keys differ", name, strat, anti, seed)
					}
					assertDatasetBytesEqual(t, name, wantEnc, gotEnc)
				}
			}
		}
	}
}

// assertDatasetBytesEqual compares two datasets for exact (bitwise)
// equality of values, labels and schema via their CSV serialization
// plus a direct float comparison (CSV formatting is injective for
// float64 via strconv 'g' -1, but compare the raw bits too).
func assertDatasetBytesEqual(t *testing.T, name string, want, got *dataset.Dataset) {
	t.Helper()
	if !want.Equal(got) {
		t.Fatalf("%s: encoded datasets differ structurally", name)
	}
	for a := range want.Cols {
		for i := range want.Cols[a] {
			w := math.Float64bits(want.Cols[a][i])
			g := math.Float64bits(got.Cols[a][i])
			if w != g {
				t.Fatalf("%s: attr %d tuple %d: bits %x != %x", name, a, i, w, g)
			}
		}
	}
	var wb, gb bytes.Buffer
	if err := want.WriteCSV(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("%s: encoded CSV bytes differ", name)
	}
}
