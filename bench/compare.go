package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadBenchmarkDef reads BENCHMARK.json from the repository root, which
// is the working directory of bench/run.sh, or its parent when run from
// bench/.
func loadBenchmarkDef() (*benchmarkDef, error) {
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		var b []byte
		if b, err = os.ReadFile(p); err != nil {
			continue
		}
		var def benchmarkDef
		if err := json.Unmarshal(b, &def); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &def, nil
	}
	return nil, err
}

// verdict judges side b against side a for one metric. A side whose
// interquartile range exceeds the bound leaves the comparison
// unresolved, unless every run of one side beats every run of the other.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	ma, mb := median(a), median(b)
	gain := (ma - mb) / ma // improvement of b over a, for lower-is-better
	if higherBetter {
		gain = -gain
	}
	if spread(a) > bound || spread(b) > bound {
		switch {
		case beatsAll(a, b, higherBetter):
			return "better"
		case beatsAll(b, a, higherBetter):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	}
	return "within bound"
}

// beatsAll reports whether every value of b is better than every value
// of a.
func beatsAll(a, b []float64, higherBetter bool) bool {
	worstB, bestA := b[0], a[0]
	for _, v := range b {
		if higherBetter == (v < worstB) {
			worstB = v
		}
	}
	for _, v := range a {
		if higherBetter == (v > bestA) {
			bestA = v
		}
	}
	if higherBetter {
		return worstB > bestA
	}
	return worstB < bestA
}

// runCompare reads result files A... -- B... and prints, per workload
// and end-to-end metric, each side's median and quartiles and the
// verdict against the BENCHMARK.json bound; a metric the workload only
// derives (see derived) is printed and not judged. It refuses runs of
// different lengths, and exits 1 when any verdict is worse or
// unresolved.
func runCompare(args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: -compare A.json... -- B.json...")
		return 2
	}
	def, err := loadBenchmarkDef()
	if err != nil {
		fmt.Fprintln(stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	lengths := map[string]bool{}
	a, errA := loadSide(args[:split], lengths)
	b, errB := loadSide(args[split+1:], lengths)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if len(lengths) > 1 {
		var ls []string
		for l := range lengths {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		fmt.Fprintf(stderr, "bench: the runs were made at different lengths (%s) and cannot be compared\n", strings.Join(ls, "; "))
		return 2
	}
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the two sides share no workload")
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-15s %-18s %8s  %-32s %-32s %8s  %s\n", "workload", "metric", "bound", "A median [q1 q3] n", "B median [q1 q3] n", "change", "verdict")
	for _, w := range names {
		for _, m := range def.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, m.Bound, m.Better == "higher")
			if _, ok := derived[w][m.Name]; ok {
				v = "derived, not judged"
			} else if v == "worse" || v == "unresolved" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-15s %-18s %7.0f%%  %-32s %-32s %+7.1f%%  %s\n", w, m.Name, 100*m.Bound,
				summarize(va), summarize(vb), 100*(median(vb)-median(va))/median(va), v)
		}
	}
	return code
}

func summarize(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
}

// loadSide reads result files into workload → metric → values, and
// adds the length of every run it reads to lengths. Passing untraced
// runs as one side and traced runs as the other measures the cost of
// tracing.
func loadSide(paths []string, lengths map[string]bool) (map[string]map[string][]float64, error) {
	side := map[string]map[string][]float64{}
	for _, p := range paths {
		rf, err := readResults(p)
		if err != nil {
			return nil, err
		}
		for _, r := range rf.Runs {
			l := fmt.Sprintf("-seconds %d", r.Seconds)
			if r.Short {
				l += " -short"
			}
			lengths[l] = true
			if side[r.Workload] == nil {
				side[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				side[r.Workload][name] = append(side[r.Workload][name], m.Value)
			}
		}
	}
	return side, nil
}
