#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload all -seed 1 -out results.json
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache, so the first run compiles the
# standard library and takes longer than the rest.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a privtree checkout (go.mod, internal/ and bench/go.mod are needed)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd bench && go build -o "$build/privtree-bench" .)
exec "$build/privtree-bench" "$@"
