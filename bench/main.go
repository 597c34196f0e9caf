// Command bench is privtree's benchmark: four workloads that drive the
// custodian round trip in memory and out of core, and privtreed under
// open- and closed-loop HTTP load, through the library's public
// functions. It prints one line per metric, "workload metric value
// unit", and as its last line a JSON summary.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload custodian-csv -seed 1 [-seconds 25] [-trace 1] [-out r.json]
//	bash bench/run.sh -workload all -seed 1 -out r.json
//	bash bench/run.sh -compare A.json... -- B.json...
//
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one workload run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	short   bool
	workdir string
	// tr is nil in an untraced run.
	tr *tracer
	// probe times the host while the system under test is idle.
	probe *hostProbe
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	// layer holds per-layer metrics; missing ones are reported as 0.
	layer map[string]float64
	diag  map[string]float64
	spans []span
	// wall is the timed wall time.
	wall time.Duration
	// offered marks rows_per_s as the load's schedule, not a speed, so
	// host scaling leaves it alone.
	offered bool
	// warning, when set, says why the run's numbers are suspect.
	warning string
}

// runSeconds is the default length of the timed phase, BENCHMARK.json's
// run_seconds. Only runs of one length can be compared.
const runSeconds = 25

var workloads = []struct {
	name string
	run  func(config) (*outcome, error)
}{
	{"custodian-csv", custodianCSV},
	{"outofcore-bin", outOfCoreBin},
	{"privtreed-mix", privtreedMix},
	{"privtreed-bulk", privtreedBulk},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "custodian-csv, outofcore-bin, privtreed-mix, privtreed-bulk, or all")
		seed     = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = fs.Int("seconds", runSeconds, "length of the timed phase in seconds")
		trace    = fs.String("trace", "0", "1 records spans, writes <workload>.trace.json to -workdir and reports per-layer metrics")
		short    = fs.Bool("short", false, "toy scale (2k rows per data set), for tests")
		out      = fs.String("out", "", "also write the results as JSON to this file")
		workdir  = fs.String("workdir", ".bench_build", "directory for shards, key stores and trace files")
		compare  = fs.Bool("compare", false, "compare result files: -compare A.json... -- B.json...")
		serve    = fs.String("serve", "", "serve privtreed over the key store in this directory (used by the HTTP workloads)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fmt.Fprintf(stderr, "bench: -trace %q: want 0 or 1\n", *trace)
		return 2
	}
	if *serve != "" {
		if err := serveChild(*serve, traced, os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "bench: serve:", err)
			return 1
		}
		return 0
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, short: *short, workdir: *workdir}
	if *workload == "all" {
		return runAll(args, cfg, *out, stdout, stderr)
	}
	return runOne(*workload, cfg, traced, *seconds, *out, stdout, stderr)
}

func runOne(name string, cfg config, traced bool, seconds int, out string, stdout, stderr io.Writer) int {
	var runW func(config) (*outcome, error)
	for _, w := range workloads {
		if w.name == name {
			runW = w.run
		}
	}
	if runW == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	if n := runtime.NumCPU(); n < workers {
		fmt.Fprintf(stderr, "bench: this host has %d CPU(s); the benchmark runs at GOMAXPROCS=%d and needs at least %d\n", n, workers, workers)
		return 1
	}
	runtime.GOMAXPROCS(workers)
	if traced {
		cfg.tr = newTracer(1)
	}
	probe, err := newHostProbe()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer probe.close()
	cfg.probe = probe
	o, err := runW(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	scaleToReference(o, probe)
	res := runResult{
		Workload: name, Seed: cfg.seed, Seconds: seconds, Trace: traced, Short: cfg.short,
		Env:     env{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metric{}, Diagnostics: o.diag,
	}
	lines := append([]metricDef(nil), endToEnd...)
	if traced {
		lines = append(lines, perLayer()...)
	} else {
		lines = append(lines, metricDef{"fail_frac", "ratio"})
	}
	o.layer["fail_frac"] = float64(o.failed) / float64(o.attempted)
	for _, d := range lines {
		v, ok := o.e2e[d.Name]
		if !ok {
			v = o.layer[d.Name]
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	for k, v := range o.diag {
		fmt.Fprintf(stderr, "# %s %s %g\n", name, k, v)
	}
	if o.warning != "" {
		fmt.Fprintf(stderr, "bench: %s: warning: %s\n", name, o.warning)
	}
	if traced {
		path := filepath.Join(cfg.workdir, name+".trace.json")
		if err := writeChromeTrace(path, o.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "# %s trace written to %s\n", name, path)
	}
	if out != "" {
		if err := writeResults(out, []runResult{res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The summary carries the end-to-end metrics of an untraced run and
	// the per-layer metrics of a traced one.
	summaryDefs := endToEnd
	if traced {
		summaryDefs = perLayer()
	}
	summary := map[string]metric{}
	for _, d := range summaryDefs {
		summary[d.Name] = res.Metrics[d.Name]
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": summary,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d output checks failed\n", name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh process of this binary, each
// with the same flags, and gathers their results.
func runAll(args []string, cfg config, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var runs []runResult
	code := 0
	for _, w := range workloads {
		tmp := filepath.Join(cfg.workdir, w.name+".results.json")
		cmd := exec.Command(exe, append(withoutFlags(args, "workload", "out"), "-workload", w.name, "-out", tmp)...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		err := cmd.Run()
		// Pass the metric lines through; the JSON summary is per run.
		for _, l := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
			if !strings.HasPrefix(l, "{") {
				fmt.Fprintln(stdout, l)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		rf, rerr := readResults(tmp)
		os.Remove(tmp)
		if rerr == nil {
			runs = append(runs, rf.Runs...)
		} else if err == nil {
			fmt.Fprintln(stderr, "bench:", rerr)
			code = 1
		}
	}
	if out != "" {
		if err := writeResults(out, runs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// withoutFlags drops the named flags and their values from args.
func withoutFlags(args []string, names ...string) []string {
	var kept []string
	for i := 0; i < len(args); i++ {
		name := strings.TrimLeft(args[i], "-")
		bare, _, hasValue := strings.Cut(name, "=")
		drop := false
		for _, n := range names {
			if bare == n && strings.HasPrefix(args[i], "-") {
				drop = true
			}
		}
		if !drop {
			kept = append(kept, args[i])
			continue
		}
		if !hasValue {
			i++ // skip the value
		}
	}
	return kept
}

func writeResults(path string, runs []runResult) error {
	b, err := json.MarshalIndent(resultsFile{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
