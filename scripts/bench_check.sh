#!/bin/sh
# bench_check.sh — benchmark-regression gate: rerun the parallel
# benchmarks BENCH_COUNT times, take the median per (benchmark, worker
# count, metric), and fail if any median ns/op rises — or any median
# rows/sec throughput falls — more than BENCH_THRESHOLD percent against
# the committed BENCH_parallel.json baseline.
#
# The gate refuses to run when the baseline was recorded at a different
# GOMAXPROCS than the current benchmark process: comparing a 1-core
# baseline against an 8-core candidate (or vice versa) measures the
# machine, not the code. Regenerate the baseline on this machine
# (scripts/bench_parallel.sh with BENCH_COUNT>=3) or pin GOMAXPROCS to
# the baseline's recorded value.
#
# Usage: scripts/bench_check.sh
#   BENCH_BASELINE   baseline JSON (default BENCH_parallel.json)
#   BENCH_THRESHOLD  allowed regression in percent (default 20)
#   BENCH_COUNT      repetitions to take the median over (default 3)
#   BENCH_TIME       -benchtime per repetition (default 2x)
#
# Medians over repeated short runs keep one scheduler hiccup from
# failing the gate; the threshold absorbs ordinary machine-to-machine
# noise. Regenerate the baseline with scripts/bench_parallel.sh when a
# deliberate performance change lands.
set -eu
cd "$(dirname "$0")/.."

BASELINE="${BENCH_BASELINE:-BENCH_parallel.json}"
THRESHOLD="${BENCH_THRESHOLD:-20}"
COUNT="${BENCH_COUNT:-3}"
BENCHTIME="${BENCH_TIME:-2x}"

if [ ! -f "$BASELINE" ]; then
	echo "bench_check: baseline $BASELINE not found" >&2
	exit 1
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT
go test -run xxx -bench 'Benchmark(Parallel(Trials|Forest|SplitSearch|EncodeStages)|ShardedEncode|BinaryShardedEncode|ShardedMine|ServerEncode|CSVCodec)' \
	-benchtime "$BENCHTIME" -count "$COUNT" . >"$RAW"

awk '
	function median(s,    cnt, xs, a, b, v) {
		cnt = split(s, xs, " ")
		for (a = 2; a <= cnt; a++) {
			v = xs[a] + 0
			for (b = a - 1; b >= 1 && xs[b] + 0 > v; b--) xs[b + 1] = xs[b]
			xs[b + 1] = v
		}
		return (cnt % 2) ? xs[(cnt + 1) / 2] : (xs[cnt / 2] + xs[cnt / 2 + 1]) / 2
	}
	# First input: the baseline JSON (one benchmark per line, the format
	# scripts/bench_parallel.sh writes). The gomaxprocs header and the
	# per-record ns_per_op / rows_per_sec objects are what the gate
	# compares against.
	FNR == NR {
		if (match($0, /"gomaxprocs": [0-9]+/))
			baseprocs = substr($0, RSTART + 14, RLENGTH - 14) + 0
		if (match($0, /"name": "[^"]+"/))
			name = substr($0, RSTART + 9, RLENGTH - 10)
		# A bare workers_N number belongs to whichever metric object
		# opens on the same line: the name line carries ns_per_op, the
		# rows_per_sec line carries throughput. (stages_ns_per_op nests
		# objects, not bare numbers, so it never matches here.)
		isrps = (index($0, "\"rows_per_sec\"") > 0)
		if (match($0, /"workers_1": [0-9]+/)) {
			v = substr($0, RSTART + 13, RLENGTH - 13)
			if (isrps) brps[name, 1] = v; else base[name, 1] = v
		}
		if (match($0, /"workers_4": [0-9]+/)) {
			v = substr($0, RSTART + 13, RLENGTH - 13)
			if (isrps) brps[name, 4] = v; else base[name, 4] = v
		}
		next
	}
	# Second input: the fresh `go test -bench` output.
	/^Benchmark/ {
		split($1, parts, "/")
		name = parts[1]
		sub(/^Benchmark/, "", name)
		w = parts[2]
		if (match(w, /-[0-9]+$/)) {
			p = substr(w, RSTART + 1, RLENGTH - 1) + 0
			if (runprocs == 0) runprocs = p
		}
		sub(/^workers=/, "", w)
		sub(/-[0-9]+$/, "", w)
		for (f = 3; f < NF; f += 2) {
			k = name SUBSEP w
			if ($(f + 1) == "ns/op") {
				samples[k] = samples[k] " " $f
				if (!(k in seenk)) { korder[++nk] = k; seenk[k] = 1 }
			} else if ($(f + 1) == "rows/s") {
				rsamples[k] = rsamples[k] " " $f
			}
		}
	}
	END {
		if (baseprocs == 0) {
			print "bench_check: baseline carries no gomaxprocs; regenerate it with scripts/bench_parallel.sh" > "/dev/stderr"
			exit 1
		}
		# go test omits the "-N" suffix entirely when GOMAXPROCS is 1,
		# so no suffix on any benchmark means a single-core run.
		if (runprocs == 0 && nk > 0) runprocs = 1
		if (runprocs != baseprocs) {
			printf "bench_check: GOMAXPROCS mismatch: baseline recorded at %d cores, this run at %d.\n", baseprocs, runprocs > "/dev/stderr"
			print "bench_check: comparing across core counts measures the machine, not the code;" > "/dev/stderr"
			print "bench_check: regenerate the baseline here (make bench-parallel, BENCH_COUNT>=3) or pin GOMAXPROCS." > "/dev/stderr"
			exit 1
		}
		status = 0
		for (i = 1; i <= nk; i++) {
			k = korder[i]
			split(k, kp, SUBSEP)
			name = kp[1]; w = kp[2]
			if (!((name, w) in base)) {
				printf "bench_check: %s workers=%s: no baseline (new benchmark?), skipping\n", name, w
				continue
			}
			med = median(samples[k])
			limit = base[name, w] * (1 + threshold / 100)
			verdict = (med > limit) ? "REGRESSION" : "ok"
			if (med > limit) status = 1
			printf "bench_check: %-22s workers=%s median %12.0f ns/op   baseline %12d  limit %12.0f  %s\n", \
				name, w, med, base[name, w], limit, verdict
			if ((name, w) in brps && rsamples[k] != "") {
				rmed = median(rsamples[k])
				rlimit = brps[name, w] * (1 - threshold / 100)
				verdict = (rmed < rlimit) ? "REGRESSION" : "ok"
				if (rmed < rlimit) status = 1
				printf "bench_check: %-22s workers=%s median %12.0f rows/s  baseline %12d  floor %12.0f  %s\n", \
					name, w, rmed, brps[name, w], rlimit, verdict
			}
		}
		if (nk == 0) {
			print "bench_check: no benchmark results parsed" > "/dev/stderr"
			status = 1
		}
		exit status
	}' threshold="$THRESHOLD" "$BASELINE" "$RAW"

echo "bench_check: all medians within ${THRESHOLD}% of $BASELINE (gomaxprocs-matched)"
