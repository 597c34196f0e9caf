package main

import (
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. Bounds and directions live in
// BENCHMARK.json, which the compare mode reads.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of privtree sees. Every workload
// reports every one of them, and none of them can be 0 on a run that
// did any work.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"encode_rows_per_s", "rows/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_mem_mb", "MiB"},
}

// derived names, per workload, the end-to-end metrics that carry no
// information of their own there, and why. Every workload must report
// every end-to-end metric; these are the values a workload can put in
// place of one it does not measure. -compare prints them but does not
// judge them.
var derived = map[string]map[string]string{
	"custodian-csv": {
		"latency_p50_ms": "the median round trip, as rows_per_s",
		"latency_p90_ms": "p90 of about 15 round trips, with fewer than 10 beyond it",
	},
	"outofcore-bin": {
		"latency_p50_ms": "the median round trip, as rows_per_s",
		"latency_p90_ms": "p90 of 2 round trips",
	},
	"privtreed-mix": {
		"rows_per_s": "the offered load; it moves only when requests fail",
	},
	"privtreed-bulk": {
		"encode_rows_per_s": "the median request, as latency_p50_ms: every request is an encode",
	},
}

// layers are the calls the benchmark wraps in spans, named
// <package>.<call>. A workload that never makes a call reports it with
// zero calls.
var layers = []string{
	"dataset.read_csv",
	"dataset.write_csv",
	"dataset.read_sharded",
	"pipeline.build_key",
	"pipeline.apply",
	"pipeline.apply_stream",
	"pipeline.build_key_sharded",
	"pipeline.apply_sharded",
	"transform.marshal_key",
	"transform.unmarshal_key",
	"tree.build",
	"tree.build_sharded",
	"tree.build_reference",
	"tree.marshal",
	"tree.unmarshal",
	"tree.decode_with_data",
	"tree.equivalent_on",
	"conformance.check_key",
	"conformance.check_guarantee",
	"server.store.put",
	"server.store.get",
	"server.handler",
	"loadgen.request",
}

// perLayerExtra are the per-layer metrics that are not per-call.
var perLayerExtra = []metricDef{
	{"fail_frac", "ratio"},
	{"parallel.cpu_busy_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"server.queue_wait.share", "ratio"},
	{"server.transport.share", "ratio"},
	{"server.unaccounted.share", "ratio"},
}

// perLayer lists every per-layer metric: for each layer its call count,
// its speed (1 ÷ median call time) and its share of the timed wall
// time, then the extras.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs,
			metricDef{l + ".calls", "count"},
			metricDef{l + ".per_s", "1/s"},
			metricDef{l + ".share", "ratio"},
		)
	}
	return append(defs, perLayerExtra...)
}

// layerMetrics turns spans into each layer's calls, per_s and share;
// wall is the timed wall time shares are taken of.
func layerMetrics(spans []span, wall time.Duration) map[string]float64 {
	by := map[string][]span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	out := map[string]float64{}
	for _, l := range layers {
		ss := by[l]
		out[l+".calls"] = float64(len(ss))
		out[l+".per_s"] = 0
		out[l+".share"] = 0
		if len(ss) == 0 {
			continue
		}
		durs := make([]float64, len(ss))
		for i, s := range ss {
			durs[i] = s.dur().Seconds()
		}
		if m := median(durs); m > 0 {
			out[l+".per_s"] = 1 / m
		}
		if wall > 0 {
			out[l+".share"] = float64(busy(ss)) / float64(wall)
		}
	}
	return out
}

// env records where a run was made.
type env struct {
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// runResult is one workload run, as written by -out and read by
// -compare.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Short     bool              `json:"short,omitempty"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Diagnostics are numbers kept for reading a run, not for gating.
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
}

// resultsFile is the -out format: the runs of one invocation.
type resultsFile struct {
	Runs []runResult `json:"runs"`
}
