#!/usr/bin/env bash
# End-to-end smoke test of the privtreed HTTP daemon: start it on an
# ephemeral port, POST the same CSV `privtree encode` gets, and cmp the
# streamed response byte for byte against the CLI output — the wire
# proof that the service plane adds no bytes of its own. Along the way:
# /healthz answers, the stored key round-trips bit-identically, a mined
# tree POSTed to /v1/decode reports same_outcome=true, /v1/verify
# passes the conformance battery, a burst against a rate-limited tenant
# draws 429 + Retry-After, and SIGTERM shuts the daemon down
# gracefully. Unit tests cover the handlers in-process; this covers the
# wiring from flag to socket with real curl.
#
#   SMOKE_ROWS  tuples to encode (default 20000)
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS="${SMOKE_ROWS:-20000}"
SEED=7
tmp="$(mktemp -d)"
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go run ./cmd/datagen -kind covertype -n "$ROWS" -o "$tmp/train.csv"
go build -o "$tmp/privtree" ./cmd/privtree
go build -o "$tmp/privtreed" ./cmd/privtreed

# The CLI reference: encode + key at a pinned seed.
"$tmp/privtree" encode -in "$tmp/train.csv" -out "$tmp/cli_enc.csv" \
  -key "$tmp/cli_key.json" -seed "$SEED"

# Daemon on an ephemeral port, file-backed keys, and a rate low enough
# that a short burst must trip the limiter (the burst covers the
# functional requests below; the refill is negligible on this scale).
"$tmp/privtreed" -listen 127.0.0.1:0 -keys "$tmp/keys" -rate 0.001 -burst 8 \
  2>"$tmp/daemon.log" &
pid=$!

# The daemon announces its resolved port on the structured logger:
#   +0.001s INFO "privtreed: serving" addr=127.0.0.1:PORT ...
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/.*"privtreed: serving" addr=\([0-9.:]*\).*/\1/p' "$tmp/daemon.log" | head -n 1)"
  [ -n "$addr" ] && break
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "privtreed_smoke: daemon exited before announcing its address" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "privtreed_smoke: no 'privtreed: serving' announcement within 10s" >&2
  cat "$tmp/daemon.log" >&2
  exit 1
fi
echo "privtreed_smoke: daemon at $addr"

[ "$(curl -fsS "http://$addr/healthz")" = "ok" ] || {
  echo "privtreed_smoke: /healthz did not answer ok" >&2
  exit 1
}

# HTTP encode at the same seed, byte-compared against the CLI output.
# The default tenant is rate-limit-free territory only if requests stay
# inside the burst, so the functional checks use their own tenant.
curl -fsS -X POST -H 'X-Privtree-Tenant: smoke' --data-binary "@$tmp/train.csv" \
  "http://$addr/v1/encode?key=smoke-key&seed=$SEED" >"$tmp/http_enc.csv"
cmp "$tmp/cli_enc.csv" "$tmp/http_enc.csv" || {
  echo "privtreed_smoke: HTTP encode differs from CLI encode" >&2
  exit 1
}
echo "privtreed_smoke: HTTP encode is byte-identical to the CLI"

# The stored key reads back bit-identical to the CLI's key file.
curl -fsS "http://$addr/v1/tenants/smoke/keys/smoke-key" >"$tmp/http_key.json"
cmp "$tmp/cli_key.json" "$tmp/http_key.json" || {
  echo "privtreed_smoke: stored key differs from the CLI key file" >&2
  exit 1
}
echo "privtreed_smoke: stored key is byte-identical to the CLI key file"

# Decode guarantee over HTTP: mine the encoded rows with the CLI, ship
# the tree to /v1/decode, and demand same_outcome=true.
"$tmp/privtree" mine -in "$tmp/cli_enc.csv" -out "$tmp/mined.json" >/dev/null
python3 - "$tmp" <<'PY'
import json, sys, pathlib
tmp = pathlib.Path(sys.argv[1])
body = {
    "tree": json.load(open(tmp / "mined.json")),
    "orig_csv": open(tmp / "train.csv").read(),
}
json.dump(body, open(tmp / "decode_req.json", "w"))
PY
curl -fsS -X POST -H 'X-Privtree-Tenant: smoke' --data-binary "@$tmp/decode_req.json" \
  "http://$addr/v1/decode?key=smoke-key" >"$tmp/decode_resp.json"
grep -q '"same_outcome":true' "$tmp/decode_resp.json" || {
  echo "privtreed_smoke: /v1/decode did not report same_outcome=true" >&2
  cat "$tmp/decode_resp.json" >&2
  exit 1
}
echo "privtreed_smoke: decode over HTTP preserves the mining outcome"

# Conformance battery over HTTP.
curl -fsS -X POST -H 'X-Privtree-Tenant: smoke' --data-binary "@$tmp/train.csv" \
  "http://$addr/v1/verify?key=smoke-key&guarantee=0" >"$tmp/verify_resp.json"
grep -q '"ok":true' "$tmp/verify_resp.json" || {
  echo "privtreed_smoke: /v1/verify rejected the key on its own data" >&2
  cat "$tmp/verify_resp.json" >&2
  exit 1
}

# Burst past the token bucket: the functional requests above spent
# some of the smoke tenant's 8 tokens; keep going until the limiter
# answers 429 with a Retry-After header.
code=""
for _ in $(seq 1 12); do
  code="$(curl -s -o "$tmp/limited.json" -D "$tmp/limited.hdr" -w '%{http_code}' \
    "http://$addr/v1/tenants/smoke/keys")"
  [ "$code" = "429" ] && break
done
[ "$code" = "429" ] || {
  echo "privtreed_smoke: burst never drew a 429 (last status $code)" >&2
  exit 1
}
grep -qi '^retry-after:' "$tmp/limited.hdr" || {
  echo "privtreed_smoke: 429 without a Retry-After header" >&2
  cat "$tmp/limited.hdr" >&2
  exit 1
}
echo "privtreed_smoke: rate limiter answered 429 + Retry-After"

# A fresh tenant is unaffected by the smoke tenant's empty bucket.
curl -fsS "http://$addr/v1/tenants/fresh/keys" >/dev/null

# /metrics carries the server counters next to the build info. The
# page goes to a file first: piped into grep -q, curl fails writing the
# rest of a page larger than the pipe buffer once grep exits at its
# first match, and pipefail turns that into a failed check.
curl -fsS "http://$addr/metrics" >"$tmp/metrics.prom"
grep -q 'privtree_server_requests_total' "$tmp/metrics.prom" || {
  echo "privtreed_smoke: /metrics missing privtree_server_requests_total" >&2
  exit 1
}

# Graceful shutdown on SIGTERM: exit 0 and the stop announcement.
kill -TERM "$pid"
wait "$pid" || {
  echo "privtreed_smoke: daemon exited non-zero on SIGTERM" >&2
  cat "$tmp/daemon.log" >&2
  exit 1
}
pid=""
grep -q '"privtreed: stopped"' "$tmp/daemon.log" || {
  echo "privtreed_smoke: no graceful-stop announcement" >&2
  cat "$tmp/daemon.log" >&2
  exit 1
}
echo "privtreed_smoke: ok"
