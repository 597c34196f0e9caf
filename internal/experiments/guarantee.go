package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"privtree/internal/dataset"
	"privtree/internal/pipeline"
	"privtree/internal/transform"
	"privtree/internal/tree"
)

// GuaranteeCase is one configuration of the no-outcome-change check.
type GuaranteeCase struct {
	Strategy  pipeline.Strategy
	Criterion tree.Criterion
	Anti      bool
	OK        bool
	Err       string
}

// GuaranteeResult verifies Theorems 1–2 end-to-end across strategies,
// criteria and the global-anti-monotone invariant.
type GuaranteeResult struct {
	Cases []GuaranteeCase
	// Unchanged is the fraction of data values the encoding left
	// unchanged (must be ~0: every value is transformed).
	Unchanged float64
	// KeyBytes and DataBytes quantify Section 5.4's remark that the
	// decode material the custodian must keep is minimal: the size of
	// the serialized ChooseMaxMP key vs. the CSV it protects.
	KeyBytes, DataBytes int
}

// Guarantee runs the full encode → mine → decode → compare round trip
// for every (strategy, criterion, direction) combination.
func Guarantee(cfg *Config) (*GuaranteeResult, error) {
	d, err := cfg.Data()
	if err != nil {
		return nil, err
	}
	rng := cfg.rng(2)
	res := &GuaranteeResult{}
	for _, strat := range []pipeline.Strategy{pipeline.StrategyNone, pipeline.StrategyBP, pipeline.StrategyMaxMP} {
		for _, crit := range []tree.Criterion{tree.Gini, tree.Entropy} {
			for _, anti := range []bool{false, true} {
				c := GuaranteeCase{Strategy: strat, Criterion: crit, Anti: anti}
				opts := cfg.encodeOptions(strat)
				opts.Anti = anti
				enc, key, err := pipeline.Encode(d, opts, rng)
				if err != nil {
					return nil, err
				}
				if res.Unchanged == 0 {
					res.Unchanged = transform.VerifyEveryValueChanged(d, enc)
				}
				if res.KeyBytes == 0 && strat == pipeline.StrategyMaxMP {
					// Measure the key payload — the per-attribute pieces —
					// without the constant-size wire-version envelope, so
					// the reported figure is the decode material itself.
					if blob, err := json.MarshalIndent(struct {
						Attrs []*transform.AttributeKey
					}{key.Attrs}, "", "  "); err == nil {
						res.KeyBytes = len(blob)
					}
					var buf bytes.Buffer
					if err := d.WriteCSV(&buf); err == nil {
						res.DataBytes = buf.Len()
					}
				}
				err = checkRoundTrip(d, enc, key, tree.Config{MinLeaf: 5, Criterion: crit})
				if err != nil {
					c.Err = err.Error()
				} else {
					c.OK = true
				}
				res.Cases = append(res.Cases, c)
			}
		}
	}
	return res, nil
}

// checkRoundTrip mines enc, decodes the tree with key and d, and
// compares it with direct mining of d.
func checkRoundTrip(d, enc *dataset.Dataset, key *transform.Key, cfg tree.Config) error {
	mined, err := tree.Build(enc, cfg)
	if err != nil {
		return err
	}
	_, diff, err := tree.DecodeAndCompare(mined, key, d, cfg)
	if err != nil {
		return err
	}
	if diff != "" {
		return fmt.Errorf("decoded tree differs from direct mining at %s", diff)
	}
	return nil
}

// Print renders the guarantee verification results.
func (r *GuaranteeResult) Print(w io.Writer) {
	fmt.Fprintln(w, "No-outcome-change guarantee (Theorems 1–2), end to end")
	fmt.Fprintf(w, "values left unchanged by encoding: %s (perturbation leaves ~25%%; see -run perturb)\n", pct(r.Unchanged))
	if r.DataBytes > 0 {
		fmt.Fprintf(w, "decode material: explicit ChooseMaxMP key %d bytes for %d bytes of data (%.1f%%);\n",
			r.KeyBytes, r.DataBytes, 100*float64(r.KeyBytes)/float64(r.DataBytes))
		fmt.Fprintln(w, "  the explicit key is dominated by monochromatic permutation tables — a custodian")
		fmt.Fprintln(w, "  can instead keep only the 8-byte seed + options, since encoding is deterministic")
	}
	fmt.Fprintf(w, "%-14s %-10s %-6s %s\n", "strategy", "criterion", "anti", "result")
	rule(w, 50)
	for _, c := range r.Cases {
		status := "PASS"
		if !c.OK {
			status = "FAIL: " + c.Err
		}
		fmt.Fprintf(w, "%-14s %-10s %-6v %s\n", c.Strategy, c.Criterion, c.Anti, status)
	}
}
