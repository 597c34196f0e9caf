package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"privtree/internal/attack"
	"privtree/internal/pipeline"
	"privtree/internal/risk"
	"privtree/internal/runs"
)

// Fig9Row holds the four bars of one attribute in Figure 9: domain
// disclosure risk under the polyline attack.
type Fig9Row struct {
	Attr string
	// BaselineExpert: no breakpoints, expert hacker (4 good KPs).
	BaselineExpert float64
	// BPExpert: ChooseBP with the same breakpoint count as ChooseMaxMP.
	BPExpert float64
	// MaxMPExpert: ChooseMaxMP, expert hacker.
	MaxMPExpert float64
	// MaxMPKnowledgeable: ChooseMaxMP, knowledgeable hacker (2 KPs).
	MaxMPKnowledgeable float64
	// MaxMPIgnorant: ChooseMaxMP, no prior knowledge (the text's
	// "consistently below 5%" reference point).
	MaxMPIgnorant float64
}

// Fig9Result reproduces Figure 9: domain disclosure risks for all 10
// attributes across breakpoint strategies and hacker profiles.
type Fig9Result struct {
	Rows []Fig9Row
}

// fig9Cells lists the five bars of each attribute in column order.
var fig9Cells = []struct {
	strategy pipeline.Strategy
	hacker   risk.Hacker
}{
	{pipeline.StrategyNone, risk.Expert},
	{pipeline.StrategyBP, risk.Expert},
	{pipeline.StrategyMaxMP, risk.Expert},
	{pipeline.StrategyMaxMP, risk.Knowledgeable},
	{pipeline.StrategyMaxMP, risk.Ignorant},
}

// Fig9 computes the domain-disclosure comparison. For a fair comparison
// (Section 6.2.1), ChooseBP uses the same number of breakpoints that
// ChooseMaxMP produced for the attribute, with a minimum of cfg.W. The
// whole attribute × strategy × trial grid fans out over the configured
// workers; every trial runs on its own (seed, cell, trial)-derived
// random stream, so the result is identical at any worker count.
func Fig9(cfg *Config) (*Fig9Result, error) {
	d, err := cfg.Data()
	if err != nil {
		return nil, err
	}
	m := d.NumAttrs()
	// Breakpoint parity per attribute: the ChooseMaxMP piece count.
	ws := make([]int, m)
	for a := 0; a < m; a++ {
		groups := runs.AttrGroups(d, a)
		pieces := runs.MaxMonoPieces(groups, cfg.MinWidth)
		ws[a] = len(pieces)
		if ws[a] < cfg.W {
			ws[a] = cfg.W
		}
	}
	nc := len(fig9Cells)
	meds, err := cfg.gridMedians(m*nc,
		func(cell int) int64 {
			a, ci := cell/nc, cell%nc
			return int64(9000 + a*10 + ci)
		},
		func(cell int, rng *rand.Rand) (float64, error) {
			a, ci := cell/nc, cell%nc
			c := fig9Cells[ci]
			opts := cfg.encodeOptions(c.strategy)
			opts.Breakpoints = ws[a]
			ctx, _, err := attrContext(d, a, opts, cfg.RhoFrac, rng)
			if err != nil {
				return 0, err
			}
			return ctx.DomainTrial(rng, attack.Polyline, c.hacker)
		})
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Rows: make([]Fig9Row, m)}
	for a := 0; a < m; a++ {
		row := &res.Rows[a]
		row.Attr = d.AttrNames[a]
		cols := []*float64{&row.BaselineExpert, &row.BPExpert, &row.MaxMPExpert,
			&row.MaxMPKnowledgeable, &row.MaxMPIgnorant}
		for ci, dst := range cols {
			*dst = meds[a*nc+ci]
		}
	}
	return res, nil
}

// Print renders the Figure 9 bars as a table.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 9 — Domain Disclosure Risk (polyline attack, median of trials)")
	fmt.Fprintf(w, "%-4s %-16s %10s %10s %10s %12s %10s\n",
		"attr", "name", "none/exp", "bp/exp", "maxmp/exp", "maxmp/knowl", "maxmp/ign")
	rule(w, 80)
	for i, row := range r.Rows {
		fmt.Fprintf(w, "#%-3d %-16s %10s %10s %10s %12s %10s\n",
			i+1, row.Attr, pct(row.BaselineExpert), pct(row.BPExpert),
			pct(row.MaxMPExpert), pct(row.MaxMPKnowledgeable), pct(row.MaxMPIgnorant))
	}
}
