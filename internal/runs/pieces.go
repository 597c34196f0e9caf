package runs

import "privtree/internal/dataset"

// Piece is a contiguous block of distinct values of an attribute domain,
// produced by the ChooseMaxMP decomposition (Section 5.2). Lo and Hi
// index the ValueGroup slice the piece was computed from; the piece
// covers groups [Lo, Hi).
type Piece struct {
	Lo, Hi int
	// Mono reports whether every value in the piece is monochromatic
	// with one shared label, so that an arbitrary bijection may encode
	// it (Definition 9).
	Mono bool
	// Label is the shared class label of a monochromatic piece.
	Label int
}

// Len returns the number of distinct values in the piece.
func (p Piece) Len() int { return p.Hi - p.Lo }

// MaxMonoPieces computes the maximal monochromatic decomposition of
// Procedure ChooseMaxMP: scanning the value groups from smallest to
// largest, it grows maximal monochromatic pieces (same label,
// monochromatic values) and collects the remaining values into
// non-monochromatic pieces. minWidth is the minimum number of distinct
// values for a piece to count as monochromatic (Section 5.2 suggests
// width >= 5 in practice; pass 1 to keep all); shorter monochromatic
// stretches are folded into their neighboring non-monochromatic pieces.
func MaxMonoPieces(groups []ValueGroup, minWidth int) []Piece {
	if minWidth < 1 {
		minWidth = 1
	}
	var raw []Piece
	for i, g := range groups {
		n := len(raw)
		if g.Mono {
			if n > 0 && raw[n-1].Mono && raw[n-1].Label == g.Label && raw[n-1].Hi == i {
				raw[n-1].Hi = i + 1
				continue
			}
			raw = append(raw, Piece{Lo: i, Hi: i + 1, Mono: true, Label: g.Label})
			continue
		}
		if n > 0 && !raw[n-1].Mono && raw[n-1].Hi == i {
			raw[n-1].Hi = i + 1
			continue
		}
		raw = append(raw, Piece{Lo: i, Hi: i + 1, Mono: false})
	}
	// Demote monochromatic pieces below the width threshold, then merge
	// adjacent non-monochromatic pieces.
	var out []Piece
	for _, p := range raw {
		if p.Mono && p.Len() < minWidth {
			p.Mono = false
		}
		if n := len(out); n > 0 && !out[n-1].Mono && !p.Mono && out[n-1].Hi == p.Lo {
			out[n-1].Hi = p.Hi
			continue
		}
		out = append(out, p)
	}
	return out
}

// Profile is the per-attribute summary reported in Figure 8 of the
// paper, plus the discontinuity count used by Figure 11.
type Profile struct {
	// Stats carries the dynamic range and distinct-value statistics.
	Stats dataset.BasicStats
	// MonoPieces is the number of maximal monochromatic pieces.
	MonoPieces int
	// AvgMonoLen is the mean number of distinct values per
	// monochromatic piece (0 when there are none).
	AvgMonoLen float64
	// PctMonoValues is the fraction of distinct values contained in
	// monochromatic pieces, in [0,1].
	PctMonoValues float64
	// MonoValueCount is the number of distinct values inside
	// monochromatic pieces.
	MonoValueCount int
}

// ProfileAttr computes the Figure 8 profile of attribute a using
// minWidth as the monochromatic piece threshold. The column is grouped
// exactly once (AttrGroups), and BasicStats is read off the groups
// instead of re-sorting via Dataset.Stats.
func ProfileAttr(d *dataset.Dataset, a, minWidth int) Profile {
	groups := AttrGroups(d, a)
	pieces := MaxMonoPieces(groups, minWidth)
	p := Profile{Stats: GroupStats(groups)}
	for _, pc := range pieces {
		if pc.Mono {
			p.MonoPieces++
			p.MonoValueCount += pc.Len()
		}
	}
	if p.MonoPieces > 0 {
		p.AvgMonoLen = float64(p.MonoValueCount) / float64(p.MonoPieces)
	}
	if len(groups) > 0 {
		p.PctMonoValues = float64(p.MonoValueCount) / float64(len(groups))
	}
	return p
}
