package experiments

import (
	"fmt"
	"io"

	"privtree/internal/attack"
	"privtree/internal/runs"
)

// Fig11Row is one attribute's worst-case sorting-attack exposure.
type Fig11Row struct {
	Attr            string
	Discontinuities int
	PctMonoValues   float64
	WorstCaseCrack  float64
}

// Fig11Result reproduces Figure 11: the sorting attack when the hacker
// knows the true dynamic range of every attribute.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11 computes the worst-case sorting risk per attribute. The crack
// rate follows Section 5.4's rank analysis: the rank of a value confines
// the original to a feasible interval; discontinuities widen that
// interval and shrink the crack probability. Values inside monochromatic
// pieces are shielded by the random bijection, which breaks the rank
// correspondence entirely — combining both effects reproduces the
// paper's Figure 11 column (e.g. attribute 1: 74% mono × fully exposed
// rank → 26%).
func Fig11(cfg *Config) (*Fig11Result, error) {
	d, err := cfg.Data()
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for a := 0; a < d.NumAttrs(); a++ {
		p := runs.ProfileAttr(d, a, cfg.MinWidth)
		st := p.Stats
		// Values inside monochromatic pieces are encoded by random
		// bijections, so the rank mapping the sorting attack relies on
		// does not exist for them.
		groups := runs.AttrGroups(d, a)
		immune := make([]bool, len(groups))
		for _, pc := range runs.MaxMonoPieces(groups, cfg.MinWidth) {
			if pc.Mono {
				for i := pc.Lo; i < pc.Hi; i++ {
					immune[i] = true
				}
			}
		}
		rate := attack.SortingCrackRateMasked(d.ActiveDomain(a), immune, st.Min, st.Max, cfg.RhoFrac*st.RangeWidth)
		res.Rows = append(res.Rows, Fig11Row{
			Attr:            d.AttrNames[a],
			Discontinuities: st.Discontinuities,
			PctMonoValues:   p.PctMonoValues,
			WorstCaseCrack:  rate,
		})
	}
	return res, nil
}

// Print renders the Figure 11 table.
func (r *Fig11Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 11 — Sorting Attack: Worst Case (hacker knows true min/max)")
	fmt.Fprintf(w, "%-4s %-16s %10s %10s %12s\n", "attr", "name", "discont", "%mono", "crack%")
	rule(w, 58)
	for i, row := range r.Rows {
		fmt.Fprintf(w, "#%-3d %-16s %10d %10s %12s\n",
			i+1, row.Attr, row.Discontinuities, pct(row.PctMonoValues), pct(row.WorstCaseCrack))
	}
}
