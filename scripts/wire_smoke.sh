#!/usr/bin/env bash
# wire_smoke.sh — end-to-end smoke of the binary wire protocol behind
# `make wire-smoke`.
#
# Boots ucatd, then drives a mixed-kind sweep — every query kind the API
# speaks — over BOTH protocols. ucatload's determinism check then replays
# petq, topk and window three ways (direct, JSON, binary, the served pair
# concurrently). Its exit status is the
# verdict on traffic and answers (cmd/ucatload/main_test.go pins the rules);
# the check below additionally requires that the server negotiated both
# content types.
set -euo pipefail
cd "$(dirname "$0")/.."

N=${UCAT_WIRE_N:-5000}
DUR=${UCAT_WIRE_DUR:-1s}
DOMAIN=50

work=$(mktemp -d)
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null; rm -rf "$work"' EXIT

go build -o "$work/" ./cmd/ucatgen ./cmd/ucatd ./cmd/ucatload

"$work/ucatgen" -dataset gen3 -n "$N" -domain "$DOMAIN" -index inverted \
    -save "$work/rel.ucat" >/dev/null

"$work/ucatd" -load "$work/rel.ucat" -addr 127.0.0.1:0 -addrfile "$work/addr" \
    >"$work/ucatd.log" 2>&1 &
PID=$!
for _ in $(seq 100); do [ -s "$work/addr" ] && break; sleep 0.1; done
[ -s "$work/addr" ] || { echo "wire_smoke: ucatd never became ready" >&2; cat "$work/ucatd.log" >&2; exit 1; }
ADDR=$(cat "$work/addr")

# ucatload exits non-zero when a load level completed nothing, on any
# transport or protocol error, and on a single differing answer.
"$work/ucatload" -addr "$ADDR" -proto json,binary \
    -kinds petq,topk,window,windowtopk,dstq,neighbor \
    -clients 2,4 -dur "$DUR" -domain "$DOMAIN" \
    -load "$work/rel.ucat" -check 25

# The server must have negotiated both content types: the per-protocol
# counters are part of the /metrics contract.
curl -fsS "http://$ADDR/metrics" | tee "$work/metrics.prom" | grep -E \
    '^ucat_serve_proto_requests_total_(json|binary) ' | awk '$2 == 0 { bad=1 }
    END { exit bad }' || {
  echo "wire_smoke: a protocol counter stayed at zero" >&2
  grep '^ucat_serve_proto' "$work/metrics.prom" >&2 || true
  exit 1
}

kill -TERM "$PID"
wait "$PID" || true
PID=""
echo "wire-smoke: OK"
