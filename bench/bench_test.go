package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// an HTTP workload re-executes itself to serve privtreed.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if got := spread([]float64{9, 10, 10, 11}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("spread = %v, want 0.05", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 0.5, true}, {99, 0.5, true},
		{100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true},
	} {
		q, ok := tail(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tail(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) *benchmarkDef {
	t.Helper()
	def, err := loadBenchmarkDef()
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	def := benchmarkJSON(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	declared := map[string]string{}
	for _, m := range def.EndToEnd {
		declared[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		declared[m.Name] = m.Unit
	}
	ours := append(append([]metricDef(nil), endToEnd...), perLayer()...)
	for _, d := range ours {
		if !valid.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, valid)
		}
		if u, ok := declared[d.Name]; !ok || u != d.Unit {
			t.Errorf("metric %s (%s) is not declared in BENCHMARK.json with that unit (got %q)", d.Name, d.Unit, u)
		}
	}
	if len(ours) != len(declared) {
		t.Errorf("the benchmark defines %d metrics, BENCHMARK.json declares %d", len(ours), len(declared))
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark workloads %v", names, have)
	}
	for w, ms := range derived {
		if !slices.Contains(have, w) {
			t.Errorf("derived names unknown workload %s", w)
		}
		for m := range ms {
			if !slices.Contains(endToEnd, metricDef{m, declared[m]}) {
				t.Errorf("derived names %s on %s, which is not an end-to-end metric", m, w)
			}
		}
	}
	if def.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the benchmark's default -seconds %d", def.RunSeconds, runSeconds)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := planMix(7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planMix(7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two privtreed-mix plans from seed 7 differ")
	}
	c, err := planMix(8, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Requests[0].Due, c.Requests[0].Due) || bytes.Equal(a.Tenants[0].CSV, c.Tenants[0].CSV) {
		t.Error("seeds 7 and 8 gave the same schedule or inputs")
	}
	kinds := map[string]int{}
	for _, r := range a.Requests {
		kinds[r.Kind]++
	}
	if n := len(a.Requests); n != 40 || kinds["encode"] != 28 || kinds["verify"] != 6 || kinds["decode"] != 6 {
		t.Errorf("2 s at 20 req/s gave %d requests, mix %v; want 40 as 28/6/6", n, kinds)
	}
	if !sort.SliceIsSorted(a.Requests, func(i, j int) bool { return a.Requests[i].Due < a.Requests[j].Due }) {
		t.Error("arrivals are not in time order")
	}

	x, err := covertypeCSV(7, 500)
	if err != nil {
		t.Fatal(err)
	}
	y, err := covertypeCSV(7, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Error("custodian-csv input differs between two runs of seed 7")
	}
	dir := t.TempDir()
	m1, err := writeShards(dir+"/a", 1000, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := writeShards(dir+"/b", 1000, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := materialize(m1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := materialize(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Error("outofcore-bin shards differ between two runs of seed 7")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 100, 101, 99}, false, "within bound"},
		{"slower", []float64{120, 121, 119, 120}, false, "worse"},
		{"faster", []float64{80, 81, 79, 80}, false, "better"},
		{"more throughput", []float64{120, 121, 119, 120}, true, "better"},
		{"noisy", []float64{60, 140, 100, 100, 180, 50}, false, "unresolved"},
		{"noisy but always faster", []float64{10, 30, 50, 70}, false, "better"},
		{"noisy but always slower", []float64{110, 130, 150, 170}, false, "worse"},
	} {
		if got := verdict(base, c.b, 0.1, c.higher); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// write stores one result file per value of v, all other end-to-end
	// metrics at 1, and returns their paths.
	write := func(name string, seconds int, metricName string, v ...float64) []string {
		var paths []string
		for i, x := range v {
			ms := map[string]metric{}
			for _, d := range endToEnd {
				ms[d.Name] = metric{Value: 1, Unit: d.Unit}
			}
			ms[metricName] = metric{Value: x}
			p := filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, i))
			if err := writeResults(p, []runResult{{Workload: "privtreed-mix", Seconds: seconds, Metrics: ms}}); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		return paths
	}
	compare := func(a, b []string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := runCompare(append(append(a, "--"), b...), &stdout, &stderr)
		return code, stdout.String() + stderr.String()
	}
	base := write("base", runSeconds, "latency_p50_ms", 20, 20.2, 19.8)
	if code, out := compare(base, write("slow", runSeconds, "latency_p50_ms", 40, 40.2, 39.8)); code != 1 || !strings.Contains(out, "worse") {
		t.Errorf("doubled latency: exit %d\n%s", code, out)
	}
	// privtreed-mix's rows_per_s is its offered load: printed, not judged.
	if code, out := compare(write("offered-a", runSeconds, "rows_per_s", 100, 101, 99), write("offered-b", runSeconds, "rows_per_s", 50, 51, 49)); code != 0 || !strings.Contains(out, "derived, not judged") {
		t.Errorf("halved offered load: exit %d\n%s", code, out)
	}
	if code, out := compare(base, write("short", 2, "latency_p50_ms", 20, 20.2, 19.8)); code != 2 || !strings.Contains(out, "different lengths") {
		t.Errorf("runs of 25 s against runs of 2 s: exit %d\n%s", code, out)
	}
}

func TestWithoutFlags(t *testing.T) {
	got := withoutFlags([]string{"-workload", "all", "-seed", "3", "--out=x.json", "-short"}, "workload", "out")
	if want := []string{"-seed", "3", "-short"}; !reflect.DeepEqual(got, want) {
		t.Errorf("withoutFlags = %v, want %v", got, want)
	}
}

// TestShortSmoke runs every workload at toy scale, traced, and checks
// that it reports every declared metric, and only those, with every
// output check passing.
func TestShortSmoke(t *testing.T) {
	if runtime.NumCPU() < workers {
		t.Skipf("needs %d CPUs", workers)
	}
	def := benchmarkJSON(t)
	declared := map[string]bool{}
	for _, m := range def.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range def.PerLayer {
		declared[m.Name] = true
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-short", "-seconds", "2", "-seed", "3", "-trace", "1", "-workdir", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			reported := map[string]bool{}
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 4 || f[0] != w.name {
					t.Fatalf("malformed metric line %q", l)
				}
				if !declared[f[1]] {
					t.Errorf("reported metric %s is not in BENCHMARK.json", f[1])
				}
				reported[f[1]] = true
				if f[1] == "fail_frac" && f[2] != "0" {
					t.Errorf("fail_frac = %s", f[2])
				}
			}
			for name := range declared {
				if !reported[name] {
					t.Errorf("declared metric %s not reported", name)
				}
			}
			var summary struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("last line is not the JSON summary: %v", err)
			}
			if !summary.Correct || summary.Failed != 0 || summary.Attempted < 1 {
				t.Errorf("summary: correct %v, %d of %d failed", summary.Correct, summary.Failed, summary.Attempted)
			}
			if len(summary.Metrics) != len(def.PerLayer) {
				t.Errorf("traced summary has %d metrics, BENCHMARK.json declares %d per-layer", len(summary.Metrics), len(def.PerLayer))
			}
		})
	}
}
