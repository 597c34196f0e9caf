package pipeline

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/runs"
	"privtree/internal/transform"
)

// smallDataset builds a dataset with non-trivial label structure.
func smallDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.New([]string{"x", "y"}, []string{"A", "B"})
	vals := [][2]float64{
		{1, 100}, {2, 90}, {15, 80}, {15, 70}, {27, 60}, {28, 50},
		{29, 40}, {29, 30}, {29, 25}, {29, 20}, {42, 15}, {43, 10}, {44, 5},
	}
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0}
	for i := range vals {
		if err := d.Append([]float64{vals[i][0], vals[i][1]}, labels[i]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestEncodePreservesClassStrings(t *testing.T) {
	d := smallDataset(t)
	for _, strat := range []Strategy{StrategyNone, StrategyBP, StrategyMaxMP} {
		for _, anti := range []bool{false, true} {
			rng := rand.New(rand.NewSource(7))
			enc, key, err := Encode(d, Options{Strategy: strat, Breakpoints: 3, Anti: anti}, rng)
			if err != nil {
				t.Fatalf("%v anti=%v: %v", strat, anti, err)
			}
			if err := key.Validate(); err != nil {
				t.Fatalf("%v anti=%v: invalid key: %v", strat, anti, err)
			}
			if err := transform.VerifyClassStrings(d, enc, key); err != nil {
				t.Errorf("%v anti=%v: %v", strat, anti, err)
			}
			if err := transform.VerifyBijective(d, key, 1e-6); err != nil {
				t.Errorf("%v anti=%v: %v", strat, anti, err)
			}
		}
	}
}

func TestEncodeManySeedsClassStringProperty(t *testing.T) {
	// Property-style: over many random seeds and all strategies, the
	// class string of every attribute must be preserved (or reversed).
	d := smallDataset(t)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		strat := Strategy(seed % 3)
		opts := Options{Strategy: strat, Breakpoints: int(seed%6) + 1, MinPieceWidth: int(seed%3) + 1}
		enc, key, err := Encode(d, opts, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := transform.VerifyClassStrings(d, enc, key); err != nil {
			t.Errorf("seed %d (%v): %v", seed, strat, err)
		}
	}
}

func TestEncodeChangesEveryValue(t *testing.T) {
	d := smallDataset(t)
	rng := rand.New(rand.NewSource(3))
	enc, _, err := Encode(d, Options{Strategy: StrategyMaxMP}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if frac := transform.VerifyEveryValueChanged(d, enc); frac > 0.05 {
		t.Errorf("%.1f%% of values unchanged; transformation too weak", 100*frac)
	}
}

func TestKeyApplyInvertDataset(t *testing.T) {
	d := smallDataset(t)
	rng := rand.New(rand.NewSource(11))
	enc, key, err := Encode(d, Options{Strategy: StrategyMaxMP, Breakpoints: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	back, err := key.Invert(enc)
	if err != nil {
		t.Fatal(err)
	}
	for a := range d.Cols {
		for i := range d.Cols[a] {
			if math.Abs(back.Cols[a][i]-d.Cols[a][i]) > 1e-6 {
				t.Fatalf("attr %d tuple %d: %v != %v", a, i, back.Cols[a][i], d.Cols[a][i])
			}
		}
	}
	// Labels must be carried through unchanged.
	for i := range d.Labels {
		if enc.Labels[i] != d.Labels[i] {
			t.Fatal("labels changed by encoding")
		}
	}
}

func TestEncodeErrorTaxonomy(t *testing.T) {
	d := dataset.New(nil, []string{"x"})
	_, _, err := Encode(d, Options{}, rand.New(rand.NewSource(1)))
	if !errors.Is(err, dataset.ErrNoAttributes) {
		t.Errorf("zero attributes: got %v, want ErrNoAttributes", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageProfile {
		t.Errorf("zero attributes: error does not name the profile stage: %v", err)
	}

	d2 := dataset.New([]string{"a"}, []string{"x"})
	if _, err := EncodeColumn(d2, 0, Options{}, rand.New(rand.NewSource(1))); !errors.Is(err, ErrNoValues) {
		t.Errorf("empty column: got %v, want ErrNoValues", err)
	}

	d3 := smallDataset(t)
	_, err = EncodeColumn(d3, 0, Options{Strategy: Strategy(99)}, rand.New(rand.NewSource(1)))
	if !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("unknown strategy: got %v, want ErrUnknownStrategy", err)
	}
	if !errors.As(err, &se) || se.Stage != StageChoose || se.Attr != "x" {
		t.Errorf("unknown strategy: error does not name stage choose and attribute x: %v", err)
	}
}

// TestParseStrategy pins the one name table of Strategy: every name the
// CLI and privtreed accept, and the error text of every other one.
func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Strategy
		err  string
	}{
		{"none", StrategyNone, ""},
		{"bp", StrategyBP, ""},
		{"maxmp", StrategyMaxMP, ""},
		{"", 0, `strategy "" (none, bp, maxmp): pipeline: unknown breakpoint strategy`},
		{"choosebp", 0, `strategy "choosebp" (none, bp, maxmp): pipeline: unknown breakpoint strategy`},
		{"MaxMP", 0, `strategy "MaxMP" (none, bp, maxmp): pipeline: unknown breakpoint strategy`},
	} {
		got, err := ParseStrategy(tc.name)
		if tc.err == "" {
			if err != nil || got != tc.want {
				t.Errorf("ParseStrategy(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
			}
			continue
		}
		if err == nil || err.Error() != tc.err || !errors.Is(err, ErrUnknownStrategy) {
			t.Errorf("ParseStrategy(%q) error %v; want %q wrapping ErrUnknownStrategy", tc.name, err, tc.err)
		}
	}
}

func TestStageErrorMessage(t *testing.T) {
	e := &StageError{Stage: StageDraw, Attr: "salary", Err: ErrUnknownStrategy}
	msg := e.Error()
	for _, want := range []string{"draw", "salary"} {
		if !contains(msg, want) {
			t.Errorf("StageError message %q does not mention %q", msg, want)
		}
	}
	if !errors.Is(e, ErrUnknownStrategy) {
		t.Error("StageError does not unwrap to its cause")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestChooseBPPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ n, w int }{{10, 3}, {10, 1}, {10, 10}, {10, 50}, {1, 5}, {0, 3}} {
		pieces := ChooseBP(rng, c.n, c.w)
		if c.n == 0 {
			if pieces != nil {
				t.Error("n=0 should give nil")
			}
			continue
		}
		at := 0
		for _, p := range pieces {
			if p.Lo != at || p.Hi <= p.Lo {
				t.Fatalf("n=%d w=%d: bad partition %v", c.n, c.w, pieces)
			}
			at = p.Hi
			if p.Mono {
				t.Error("ChooseBP pieces must not be marked monochromatic")
			}
		}
		if at != c.n {
			t.Fatalf("n=%d w=%d: partition does not cover domain", c.n, c.w)
		}
		wantPieces := c.w
		if wantPieces > c.n {
			wantPieces = c.n
		}
		if wantPieces < 1 {
			wantPieces = 1
		}
		if len(pieces) != wantPieces {
			t.Errorf("n=%d w=%d: %d pieces, want %d", c.n, c.w, len(pieces), wantPieces)
		}
	}
}

func TestChooseMaxMPTopUp(t *testing.T) {
	// Build groups: 3 mono values (label 0), 5 non-mono, 3 mono (label 1).
	var groups []runs.ValueGroup
	for i := 0; i < 3; i++ {
		groups = append(groups, runs.ValueGroup{Value: float64(i), Count: 1, Mono: true, Label: 0})
	}
	for i := 3; i < 8; i++ {
		groups = append(groups, runs.ValueGroup{Value: float64(i), Count: 2, Mono: false})
	}
	for i := 8; i < 11; i++ {
		groups = append(groups, runs.ValueGroup{Value: float64(i), Count: 1, Mono: true, Label: 1})
	}
	rng := rand.New(rand.NewSource(9))
	// Base decomposition has 3 pieces; ask for 5.
	pieces := ChooseMaxMP(rng, groups, 5, 1)
	if len(pieces) != 5 {
		t.Fatalf("pieces = %v, want 5", pieces)
	}
	at := 0
	monoCount := 0
	for _, p := range pieces {
		if p.Lo != at {
			t.Fatalf("not a partition: %v", pieces)
		}
		at = p.Hi
		if p.Mono {
			monoCount++
			if p.Len() != 3 {
				t.Errorf("mono piece resized: %+v", p)
			}
		}
	}
	if at != len(groups) || monoCount != 2 {
		t.Errorf("coverage %d, mono %d", at, monoCount)
	}
	// Asking for more pieces than cuttable positions saturates gracefully.
	pieces = ChooseMaxMP(rng, groups, 100, 1)
	at = 0
	for _, p := range pieces {
		if p.Lo != at {
			t.Fatalf("not a partition: %v", pieces)
		}
		at = p.Hi
	}
	if at != len(groups) {
		t.Error("saturated decomposition does not cover domain")
	}
}

func TestEncodeSingleValueAttribute(t *testing.T) {
	d := dataset.New([]string{"a"}, []string{"x", "y"})
	for i := 0; i < 4; i++ {
		if err := d.Append([]float64{7}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	enc, key, err := Encode(d, Options{Strategy: StrategyMaxMP}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := transform.VerifyClassStrings(d, enc, key); err != nil {
		t.Error(err)
	}
}

func TestDerangementHasNoFixedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 2; k <= 40; k++ {
		perm := derangement(rng, k)
		if len(perm) != k {
			t.Fatalf("k=%d: length %d", k, len(perm))
		}
		seen := make([]bool, k)
		for i, p := range perm {
			if i == p {
				t.Errorf("k=%d: fixed point at %d", k, i)
			}
			if p < 0 || p >= k || seen[p] {
				t.Fatalf("k=%d: not a permutation: %v", k, perm)
			}
			seen[p] = true
		}
	}
	// k <= 1 degrades to the identity.
	if got := derangement(rng, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("k=1 derangement = %v", got)
	}
	if got := derangement(rng, 0); len(got) != 0 {
		t.Errorf("k=0 derangement = %v", got)
	}
}

func TestCategoricalEncodingChangesEveryCode(t *testing.T) {
	d := dataset.New([]string{"c"}, []string{"x", "y"})
	for i := 0; i < 40; i++ {
		if err := d.Append([]float64{float64(i % 5)}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.MarkCategorical(0, []string{"a", "b", "c", "d", "e"}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		enc, _, err := Encode(d, Options{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Cols[0] {
			if enc.Cols[0][i] == d.Cols[0][i] {
				t.Fatalf("seed %d: code %v released unchanged", seed, d.Cols[0][i])
			}
		}
	}
}

func TestKeyJSONRoundTrip(t *testing.T) {
	d := smallDataset(t)
	rng := rand.New(rand.NewSource(21))
	_, key, err := Encode(d, Options{Strategy: StrategyMaxMP, Breakpoints: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	data, err := transform.MarshalKey(key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := transform.UnmarshalKey(data)
	if err != nil {
		t.Fatal(err)
	}
	// The reconstructed key must produce identical transforms and
	// inversions on the active domain and on gap points.
	for a, ak := range key.Attrs {
		gak := got.Attrs[a]
		if gak.Attr != ak.Attr || gak.Anti != ak.Anti || len(gak.Pieces) != len(ak.Pieces) {
			t.Fatalf("attribute %d metadata differs", a)
		}
		lo, hi := ak.DomRange()
		for i := 0; i <= 200; i++ {
			x := lo + (hi-lo)*float64(i)/200
			y1, y2 := ak.Apply(x), gak.Apply(x)
			if math.Abs(y1-y2) > 1e-9 {
				t.Fatalf("attr %d Apply(%v): %v != %v", a, x, y1, y2)
			}
			if math.Abs(ak.Invert(y1)-gak.Invert(y2)) > 1e-9 {
				t.Fatalf("attr %d Invert mismatch at %v", a, x)
			}
		}
	}
}

func TestVerifyClassStringsMismatchDetected(t *testing.T) {
	d := smallDataset(t)
	rng := rand.New(rand.NewSource(4))
	enc, key, err := Encode(d, Options{Strategy: StrategyMaxMP}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the encoded data: swap two values with different labels.
	bad := enc.Clone()
	bad.Cols[0][0], bad.Cols[0][4] = bad.Cols[0][4], bad.Cols[0][0]
	if err := transform.VerifyClassStrings(d, bad, key); err == nil {
		t.Error("corruption not detected")
	}
	other := dataset.New([]string{"only"}, []string{"A"})
	if err := transform.VerifyClassStrings(d, other, key); err == nil {
		t.Error("dimension mismatch not detected")
	}
}
