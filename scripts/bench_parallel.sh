#!/bin/sh
# bench_parallel.sh — run the workers=1 vs workers=4 benchmarks and emit
# BENCH_parallel.json: one record per benchmark with ns/op and rows/sec
# at each worker count and the speedup of workers=4 over workers=1.
#
# Usage: scripts/bench_parallel.sh [benchtime]   (default 2x)
# Set BENCH_OUT to redirect the JSON (e.g. a scratch path for the
# `make check` smoke run, which must not clobber the committed file).
# Set BENCH_COUNT to repeat each benchmark and record per-metric
# medians (default 1) — use 3+ when regenerating the committed
# baseline, so scripts/bench_check.sh compares median to median.
#
# The benchmark process runs at the machine's full core count (no
# GOMAXPROCS cap is applied here; export GOMAXPROCS yourself to pin
# it). The recorded "gomaxprocs" is the value the *test binary* saw —
# parsed from the "-N" suffix go test appends to every benchmark name —
# not the host shell's nproc, which can disagree under cgroup limits,
# taskset, or an inherited GOMAXPROCS. scripts/bench_check.sh refuses
# to compare runs recorded at different core counts.
#
# Results are machine-dependent; on a single-core host the speedup
# hovers around 1.0 because there is nothing to fan out over. The point
# of the layer is that the output is bit-identical either way, so the
# worker count is purely a wall-clock knob.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2x}"
OUT="${BENCH_OUT:-BENCH_parallel.json}"
COUNT="${BENCH_COUNT:-1}"

# Bench into a temp file first: a go test failure must abort (set -e)
# instead of being swallowed by a pipe and clobbering $OUT with an
# empty benchmark list.
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT
go test -run xxx -bench 'Benchmark(Parallel(Trials|Forest|SplitSearch|EncodeStages)|ShardedEncode|BinaryShardedEncode|ShardedMine|ServerEncode|CSVCodec)' \
	-benchtime "$BENCHTIME" -count "$COUNT" . >"$RAW"

awk '
	# median sorts the space-separated sample list in place and returns
	# its middle value (mean of the middle two for even counts).
	function median(s,    cnt, xs, a, b, v) {
		cnt = split(s, xs, " ")
		for (a = 2; a <= cnt; a++) {
			v = xs[a] + 0
			for (b = a - 1; b >= 1 && xs[b] + 0 > v; b--) xs[b + 1] = xs[b]
			xs[b + 1] = v
		}
		return (cnt % 2) ? xs[(cnt + 1) / 2] : (xs[cnt / 2] + xs[cnt / 2 + 1]) / 2
	}
	/^Benchmark/ {
		# BenchmarkParallelTrials/workers=4-8   100   5152684 ns/op   48131 rows/s
		# The trailing "-8" is runtime.GOMAXPROCS inside the test
		# binary — the honest core count of this run. Custom
		# "<stage>-ns/op" metrics (BenchmarkParallelEncodeStages, fed
		# by the obs layer) and the "rows/s" throughput follow as extra
		# value/unit pairs. With -count > 1 every metric collects one
		# sample per repetition.
		split($1, parts, "/")
		name = parts[1]
		sub(/^Benchmark/, "", name)
		w = parts[2]
		if (match(w, /-[0-9]+$/)) {
			p = substr(w, RSTART + 1, RLENGTH - 1) + 0
			if (procs == 0) procs = p
			else if (procs != p) mixed = 1
		}
		sub(/^workers=/, "", w)
		sub(/-[0-9]+$/, "", w)   # strip the GOMAXPROCS suffix
		for (f = 3; f < NF; f += 2) {
			unit = $(f + 1)
			if (unit == "ns/op") {
				ns[name, w] = ns[name, w] " " $f
			} else if (unit == "rows/s") {
				rps[name, w] = rps[name, w] " " $f
			} else if (unit ~ /-ns\/op$/) {
				stage = unit
				sub(/-ns\/op$/, "", stage)
				sv[name, w, stage] = sv[name, w, stage] " " $f
				if (!((name, stage) in sseen)) {
					sorder[name, ++scount[name]] = stage
					sseen[name, stage] = 1
				}
			}
		}
		if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
	}
	END {
		if (n == 0) {
			print "bench_parallel: no benchmark results parsed" > "/dev/stderr"
			exit 1
		}
		if (mixed) {
			print "bench_parallel: benchmarks ran at differing GOMAXPROCS; refusing to record" > "/dev/stderr"
			exit 1
		}
		# go test omits the "-N" suffix entirely when GOMAXPROCS is 1,
		# so no suffix on any benchmark means a single-core run.
		if (procs == 0) procs = 1
		printf "{\n  \"gomaxprocs\": %d,\n  \"benchmarks\": [\n", procs
		for (i = 1; i <= n; i++) {
			name = order[i]
			s = median(ns[name, 1]); p = median(ns[name, 4])
			speedup = (p > 0) ? s / p : 0
			printf "    {\"name\": \"%s\", \"ns_per_op\": {\"workers_1\": %d, \"workers_4\": %d}, \"speedup\": %.2f", \
				name, s, p, speedup
			printf ",\n     \"rows_per_sec\": {\"workers_1\": %d, \"workers_4\": %d}", \
				median(rps[name, 1]), median(rps[name, 4])
			if (scount[name] > 0) {
				printf ",\n     \"stages_ns_per_op\": {"
				for (w = 1; w <= 4; w += 3) {
					printf "\"workers_%d\": {", w
					for (j = 1; j <= scount[name]; j++) {
						stage = sorder[name, j]
						printf "%s\"%s\": %d", (j > 1) ? ", " : "", stage, median(sv[name, w, stage])
					}
					printf "}%s", (w == 1) ? ", " : ""
				}
				printf "}"
			}
			printf "}%s\n", (i < n) ? "," : ""
		}
		printf "  ]\n}\n"
	}' "$RAW" >"$OUT"

echo "wrote $OUT:"
cat "$OUT"
