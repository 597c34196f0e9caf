# privtree — reproduction of "Preservation Of Patterns and Input-Output
# Privacy" (ICDE 2007). Stdlib-only; see README.md.

GO ?= go

.PHONY: all build test race stress bench bench-parallel bench-check bench-module experiments examples fmt fmt-check vet clean check fuzz-smoke cover verify obs-smoke shard-smoke privtreed-smoke

all: build test

# The full local gate, mirroring .github/workflows/ci.yml: build, vet,
# gofmt, race-enabled tests, the bench module's vet and tests, the
# sharded-encode byte-identity smoke, the privtreed daemon smoke, and a
# short parallel-benchmark smoke run (the smoke writes its JSON to a
# scratch file so the committed BENCH_parallel.json keeps its
# full-length numbers).
check: build vet fmt-check race bench-module obs-smoke shard-smoke privtreed-smoke
	BENCH_OUT="$$(mktemp)" ./scripts/bench_parallel.sh 1x

# Daemon smoke: start privtreed on an ephemeral port and prove the HTTP
# encode is byte-identical to the CLI, the key round-trips, decode
# preserves the mining outcome, the rate limiter answers 429, and
# SIGTERM shuts down gracefully (see scripts/privtreed_smoke.sh).
privtreed-smoke:
	./scripts/privtreed_smoke.sh

# Out-of-core smoke: datagen a sharded set, encode it both in-memory
# and shard-wise, cmp the outputs byte for byte, and run the
# conformance battery against the sharded original (see
# scripts/shard_smoke.sh).
shard-smoke:
	./scripts/shard_smoke.sh

# Live-telemetry smoke: encode with -obs-listen on an ephemeral port,
# scrape /healthz, /metrics and /snapshot mid-run, and lint the
# Prometheus page (see scripts/obs_smoke.sh and scripts/promlint.sh).
obs-smoke:
	./scripts/obs_smoke.sh

# Plain test run; `make race` runs the same suite under the race
# detector and should be green too — the parallel layer is exercised by
# determinism tests in every package that fans out.
test:
	$(GO) test ./...

build:
	$(GO) build ./...

race:
	$(GO) test -race ./...

# Concurrency stress: the tests that share state across goroutines —
# concurrent store and server tests, the sharded builder, the in-memory
# builder's worker invariance, the grouping scratch, the differential
# battery, the CSV codec's width and block-size invariance and the
# ordered fan-out's window — under the race detector, 20
# times at 1, 2 and 4 procs, so a flaky interleaving surfaces before
# merge. The tree package alone takes longer than go
# test's default 10-minute timeout this way, hence -timeout 60m.
stress:
	$(GO) test -race -count=20 -cpu 1,2,4 -timeout 60m -run 'Concurrent|BuildSharded|BuildWorkers|GroupClasses|Differential|CSVCodec(Invariance|FirstError)|OrderedEach' ./...

bench:
	$(GO) test -run xxx -bench=. -benchmem ./...

# bench/ is its own module that calls internal APIs through a replace
# directive, so the root module's build does not compile it: vet and
# test it here, and a change to an API it uses fails the gate instead
# of the benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Runs the workers=1 vs workers=4 benchmarks and writes
# BENCH_parallel.json (name, ns/op, workers, speedup vs serial, and
# per-encode-stage breakdowns from the obs layer). Regenerate with
# BENCH_COUNT=3 so the committed numbers are medians.
bench-parallel:
	./scripts/bench_parallel.sh

# Benchmark-regression gate: rerun the parallel benchmarks (median of
# BENCH_COUNT=3 repetitions) and fail if any median ns/op rises — or
# any median rows/sec falls — more than 20% against the committed
# BENCH_parallel.json baseline. Refuses to compare runs recorded at
# different GOMAXPROCS; pin GOMAXPROCS to the baseline's value when
# checking on a different machine.
bench-check:
	./scripts/bench_check.sh

# Short fuzzing budget per target — replays the committed corpora and
# explores a little beyond them. CI runs this on every push; longer
# local runs just raise -fuzztime.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/transform -run FuzzUnmarshalKey -fuzz FuzzUnmarshalKey -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run FuzzReadCSV -fuzz FuzzReadCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run FuzzWriteCSV -fuzz FuzzWriteCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run FuzzReadBinaryShard -fuzz FuzzReadBinaryShard -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run FuzzGuarantee -fuzz FuzzGuarantee -fuzztime $(FUZZTIME)
	$(GO) test ./internal/runs -run FuzzGroupClasses -fuzz FuzzGroupClasses -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tree -run FuzzBuild -fuzz FuzzBuild -fuzztime $(FUZZTIME)

# Coverage profile + per-package floor on the correctness-critical
# packages (see scripts/coverage.sh).
cover:
	./scripts/coverage.sh

# The randomized conformance self-test at the documented scale.
verify:
	$(GO) run ./cmd/privtree verify -rand -trials 25

# Regenerates every paper table/figure at full scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -run all -n 60000 -trials 101

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/biomarker
	$(GO) run ./examples/insurance
	$(GO) run ./examples/attacklab
	$(GO) run ./examples/mixedtypes

fmt:
	gofmt -w .

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
