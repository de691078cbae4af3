#!/usr/bin/env bash
# ingest_smoke.sh — end-to-end smoke of the live write path (CI's
# ingest-smoke job; DURABILITY.md is the spec it exercises from the outside).
#
#   1. Baseline: a read-only ucatd under a short query-only ucatload sweep;
#      the closed-loop p99 is the yardstick.
#   2. Live: the same server booted with -wal, measured under the same query
#      sweep WITH concurrent ingest writers streaming at /v1/ingest, the
#      served-vs-direct determinism check running mid-ingest. The query p99
#      must stay within INGEST_P99_FACTOR of the baseline (with an absolute
#      floor so a fast machine's sub-millisecond baseline doesn't make the
#      bound flaky).
#   3. Crash: a distinctive tuple is ingested and acked, the server is killed
#      with SIGKILL (no drain, no checkpoint), rebooted on the same -wal
#      directory, and must recover the exact tuple count and answer a query
#      for the acked tuple (DURABILITY.md §7: replay to the durable LSN).
#
# Tunables (environment):
#   UCAT_INGEST_N         tuples in the base snapshot     (default 5000)
#   UCAT_INGEST_DUR       measurement duration per level  (default 2s)
#   UCAT_INGEST_CLIENTS   query clients                   (default 4)
#   UCAT_INGEST_WRITERS   concurrent ingest writers       (default 2)
#   INGEST_P99_FACTOR     allowed p99 multiplier          (default 5)
#   INGEST_P99_FLOOR_MS   absolute p99 allowance in ms    (default 50)
set -euo pipefail
cd "$(dirname "$0")/.."

N=${UCAT_INGEST_N:-5000}
DUR=${UCAT_INGEST_DUR:-2s}
CLIENTS=${UCAT_INGEST_CLIENTS:-4}
WRITERS=${UCAT_INGEST_WRITERS:-2}
FACTOR=${INGEST_P99_FACTOR:-5}
FLOOR=${INGEST_P99_FLOOR_MS:-50}
DOMAIN=50

work=$(mktemp -d)
PID=""
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null; rm -rf "$work"' EXIT

go build -o "$work/" ./cmd/ucatgen ./cmd/ucatd ./cmd/ucatload

"$work/ucatgen" -dataset gen3 -n "$N" -domain "$DOMAIN" -index inverted \
    -save "$work/rel.ucat" >/dev/null

boot_ucatd() {
  : >"$work/addr"
  "$work/ucatd" -load "$work/rel.ucat" -addr 127.0.0.1:0 -addrfile "$work/addr" \
      "$@" >>"$work/ucatd.log" 2>&1 &
  PID=$!
  for _ in $(seq 100); do [ -s "$work/addr" ] && break; sleep 0.1; done
  [ -s "$work/addr" ] || { echo "ingest_smoke: ucatd never became ready" >&2; cat "$work/ucatd.log" >&2; exit 1; }
  ADDR=$(cat "$work/addr")
}

# p99_of <ucatload output file> — the first closed-loop p99 in milliseconds.
p99_of() {
  awk 'match($0, /p99 +[0-9.]+ms/) { s = substr($0, RSTART, RLENGTH); sub(/p99 +/, "", s); sub(/ms/, "", s); print s; exit }' "$1"
}

# stat_of <key> — integer field from the /v1/stats ingest section.
stat_of() {
  curl -sf "http://$ADDR/v1/stats" | grep -o "\"$1\": *[0-9]*" | head -1 | grep -o '[0-9]*$'
}

echo "--- pass 1: read-only baseline"
boot_ucatd
"$work/ucatload" -addr "$ADDR" -kinds petq,topk -tau 0.02 -domain "$DOMAIN" \
    -clients "$CLIENTS" -dur "$DUR" | tee "$work/baseline.txt"
kill -TERM "$PID"; wait "$PID" || true; PID=""
BASE_P99=$(p99_of "$work/baseline.txt")

echo "--- pass 2: live server, queries + concurrent ingest + determinism check"
boot_ucatd -wal "$work/wal" -fsync group
"$work/ucatload" -addr "$ADDR" -kinds petq,topk -tau 0.02 -domain "$DOMAIN" \
    -clients "$CLIENTS" -dur "$DUR" \
    -ingestclients "$WRITERS" -ingestbatch 8 \
    -load "$work/rel.ucat" -check 30 | tee "$work/live.txt"
LIVE_P99=$(p99_of "$work/live.txt")

awk -v base="$BASE_P99" -v live="$LIVE_P99" -v f="$FACTOR" -v floor="$FLOOR" 'BEGIN {
  bound = base * f; if (bound < floor) bound = floor
  printf "p99 baseline %.2fms, under ingest %.2fms, bound %.2fms\n", base, live, bound
  exit (live <= bound) ? 0 : 1
}' || { echo "ingest_smoke: query p99 regressed beyond the bound under ingest" >&2; exit 1; }

echo "--- pass 3: acked write, SIGKILL, recovery"
ACK=$(curl -sf "http://$ADDR/v1/ingest" \
    -d '{"ops":[{"op":"insert","dist":"4242:0.9,4243:0.1"}]}')
echo "$ACK" | grep -q '"durable": *true' || { echo "ingest_smoke: write not acked durable: $ACK" >&2; exit 1; }
TUPLES_BEFORE=$(stat_of tuples)
DURABLE_BEFORE=$(stat_of durable_lsn)

kill -9 "$PID"; wait "$PID" 2>/dev/null || true; PID=""

boot_ucatd -wal "$work/wal" -fsync group
TUPLES_AFTER=$(stat_of tuples)
DURABLE_AFTER=$(stat_of appended_lsn)
[ "$TUPLES_AFTER" = "$TUPLES_BEFORE" ] || {
  echo "ingest_smoke: recovery lost tuples: $TUPLES_AFTER != $TUPLES_BEFORE" >&2; exit 1; }
[ "$DURABLE_AFTER" -ge "$DURABLE_BEFORE" ] || {
  echo "ingest_smoke: recovery lost acked records: LSN $DURABLE_AFTER < $DURABLE_BEFORE" >&2; exit 1; }
curl -sf "http://$ADDR/v1/query" -d '{"kind":"petq","query":"4242:1","tau":0.5}' \
    | grep -q '"count": *1' || { echo "ingest_smoke: acked tuple missing after recovery" >&2; exit 1; }
kill -TERM "$PID"; wait "$PID" || true; PID=""

echo "ingest-smoke OK (p99 $BASE_P99 ms -> $LIVE_P99 ms; $TUPLES_AFTER tuples survived SIGKILL)"
