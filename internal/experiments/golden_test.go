package experiments

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"privtree/internal/attack"
	"privtree/internal/pipeline"
	"privtree/internal/risk"
	"privtree/internal/runs"
)

// goldenSection extracts one experiment's block from the committed
// experiments_output.txt: the lines from the header up to the next
// blank line.
func goldenSection(t *testing.T, header string) []string {
	t.Helper()
	blob, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatalf("committed experiment output missing: %v", err)
	}
	lines := strings.Split(string(blob), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, header) {
			continue
		}
		end := i
		for end < len(lines) && strings.TrimSpace(lines[end]) != "" {
			end++
		}
		return lines[i:end]
	}
	t.Fatalf("section %q not found in experiments_output.txt", header)
	return nil
}

// TestGoldenFig8 re-runs the deterministic Figure 8 statistics at the
// committed configuration and diffs them line by line against the
// committed output. Any drift in the synthetic workload, the run
// profiling, or the table rendering shows up here.
func TestGoldenFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a 60k-tuple experiment")
	}
	want := goldenSection(t, "Figure 8 — Statistics of Attributes")
	var buf strings.Builder
	if err := Run("fig8", Default(), &buf); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("fig8 renders %d lines, committed output has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fig8 line %d drifted:\n got: %q\nwant: %q", i+1, got[i], want[i])
		}
	}
}

// TestGoldenFig9Cell replays one randomized grid cell of Figure 9 —
// attribute slope, ChooseMaxMP, expert hacker — at the committed
// configuration and checks the median against the committed table. The
// grid derives each (cell, trial) stream from its own offset, so a
// single cell reproduces without running the rest of the grid; this is
// the regression pinning that property alongside the risk numbers.
func TestGoldenFig9Cell(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 101 trials on a 60k-tuple attribute")
	}
	const attrIdx, cellIdx = 2, 2 // slope; maxmp/expert is bar 2 of 5
	want := ""
	for _, l := range goldenSection(t, "Figure 9 — Domain Disclosure Risk") {
		f := strings.Fields(l)
		if len(f) == 7 && f[1] == "slope" {
			want = f[2+cellIdx]
		}
	}
	if want == "" {
		t.Fatal("slope row not found in the committed Figure 9 table")
	}

	cfg := Default()
	d, err := cfg.Data()
	if err != nil {
		t.Fatal(err)
	}
	// Breakpoint parity, exactly as Fig9 computes it.
	groups := runs.AttrGroups(d, attrIdx)
	w := len(runs.MaxMonoPieces(groups, cfg.MinWidth))
	if w < cfg.W {
		w = cfg.W
	}
	meds, err := cfg.gridMedians(1,
		func(int) int64 { return int64(9000 + attrIdx*10 + cellIdx) },
		func(_ int, rng *rand.Rand) (float64, error) {
			opts := cfg.encodeOptions(pipeline.StrategyMaxMP)
			opts.Breakpoints = w
			ctx, _, err := attrContext(d, attrIdx, opts, cfg.RhoFrac, rng)
			if err != nil {
				return 0, err
			}
			return ctx.DomainTrial(rng, attack.Polyline, risk.Expert)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := pct(meds[0]); got != want {
		t.Errorf("slope maxmp/expert cell = %s, committed output says %s", got, want)
	}
}
