#!/usr/bin/env bash
# End-to-end smoke test of the live telemetry plane: run a real encode
# with -obs-listen on an ephemeral port, scrape /healthz, /metrics and
# /snapshot while the server is up, lint the Prometheus page with
# scripts/promlint.sh, and confirm the encode itself succeeded. This is
# the CI check that `privtree encode -obs-listen :0` actually serves
# live endpoints during a run — unit tests cover the handlers, this
# covers the wiring from flag to socket.
#
#   SMOKE_ROWS    tuples to encode (default 20000)
#   SMOKE_LINGER  -obs-linger value keeping the server scrapeable after
#                 a fast encode (default 5s — the encode finishes in
#                 well under a second, the scrapes land in the linger)
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS="${SMOKE_ROWS:-20000}"
LINGER="${SMOKE_LINGER:-5s}"
tmp="$(mktemp -d)"
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go run ./cmd/datagen -kind covertype -n "$ROWS" -o "$tmp/train.csv"
go build -o "$tmp/privtree" ./cmd/privtree

"$tmp/privtree" encode -in "$tmp/train.csv" -out "$tmp/enc.csv" -key "$tmp/key.json" \
  -chunk 500 -obs-listen 127.0.0.1:0 -obs-linger "$LINGER" -progress \
  >"$tmp/out.log" 2>"$tmp/err.log" &
pid=$!

# The server announces its resolved port on the structured logger:
#   +0.001s INFO "obs: serving" addr=127.0.0.1:PORT
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/.*"obs: serving" addr=\([0-9.:]*\).*/\1/p' "$tmp/err.log" | head -n 1)"
  [ -n "$addr" ] && break
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "obs_smoke: encode exited before announcing the obs server" >&2
    cat "$tmp/err.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "obs_smoke: no 'obs: serving' announcement within 10s" >&2
  cat "$tmp/err.log" >&2
  exit 1
fi
echo "obs_smoke: scraping $addr"

[ "$(curl -fsS "http://$addr/healthz")" = "ok" ] || {
  echo "obs_smoke: /healthz did not answer ok" >&2
  exit 1
}

# The encode races the scrape: pipeline metrics only appear once the
# apply stage has streamed its first block, so re-scrape briefly
# before declaring a metric missing (the linger keeps the server up
# well past the encode).
for want in privtree_build_info privtree_pipeline_stream_rows_total \
  privtree_progress_encode_apply_stream_rows privtree_span_seconds_total; do
  found=""
  for _ in $(seq 1 25); do
    curl -fsS "http://$addr/metrics" >"$tmp/metrics.prom"
    grep -q "$want" "$tmp/metrics.prom" && { found=1; break; }
    sleep 0.2
  done
  [ -n "$found" ] || {
    echo "obs_smoke: /metrics missing $want" >&2
    exit 1
  }
done
./scripts/promlint.sh "$tmp/metrics.prom"

curl -fsS "http://$addr/snapshot?format=prom" >/dev/null
# To a file, not a pipe: grep -q exits at its first match, and curl
# then fails writing the rest of a large snapshot.
curl -fsS "http://$addr/snapshot?format=json" >"$tmp/snapshot.json"
grep -q '"build"' "$tmp/snapshot.json" || {
  echo "obs_smoke: /snapshot?format=json missing build info" >&2
  exit 1
}
curl -fsS "http://$addr/snapshot?format=trace" >"$tmp/trace.json"
grep -q '"traceEvents"' "$tmp/trace.json" || {
  echo "obs_smoke: trace export missing traceEvents" >&2
  exit 1
}
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/snapshot?format=bogus")"
[ "$code" = "400" ] || {
  echo "obs_smoke: bad format returned $code, want 400" >&2
  exit 1
}

# Wait out the linger so the graceful-shutdown path runs and its log
# line can be checked; the scrapes above all happened while the server
# (and usually the encode itself) was live.
wait "$pid" || {
  echo "obs_smoke: encode failed" >&2
  cat "$tmp/err.log" >&2
  exit 1
}
pid=""

[ -s "$tmp/enc.csv" ] || {
  echo "obs_smoke: encode produced no output" >&2
  exit 1
}
grep -q '"obs: server stopped"' "$tmp/err.log" || {
  echo "obs_smoke: no graceful shutdown announcement" >&2
  cat "$tmp/err.log" >&2
  exit 1
}
echo "obs_smoke: ok"
