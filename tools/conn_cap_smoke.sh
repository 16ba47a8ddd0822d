#!/usr/bin/env bash
# Connection-cap smoke: run `iotax serve`, then `iotax fleet`, under
# `ulimit -n 64` and hold 100 connections against each. The ones past
# the fd-derived session cap must read a typed kBusy frame, the process
# must stay idle (< 0.1 s CPU over 1 s) instead of spinning on a full
# fd table, and once the held connections close a fresh client must be
# served byte-identically to offline predictions.
#
#   conn_cap_smoke.sh <path-to-iotax> <path-to-iotax_conn_flood> <work-dir>
set -euo pipefail

IOTAX="$1"
FLOOD="$2"
WORK="$3"

rm -rf "$WORK"
mkdir -p "$WORK/shards"
cd "$WORK"

PID=""
cleanup() {
  if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
    kill -KILL "$PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

echo "== dataset + model =="
"$IOTAX" simulate --preset tiny --seed 7 --out .
"$IOTAX" train --dataset dataset.csv --model gbt \
  --params '{"n_estimators": 10, "max_depth": 3}' --out model.gbt
IOTAX_THREADS=1 "$IOTAX" predict --dataset dataset.csv \
  --model-file model.gbt --out offline.csv

# run_capped <name> <socket> <drain-line> <command...>
run_capped() {
  local name="$1" sock="$2" drained="$3"
  shift 3
  echo "== $name under ulimit -n 64 =="
  rm -f ready.txt
  ( ulimit -n 64; exec "$@" --ready-file ready.txt ) > "$name.log" 2>&1 &
  PID=$!
  for _ in $(seq 1 600); do
    [[ -f ready.txt ]] && break
    kill -0 "$PID" 2>/dev/null \
      || { echo "FAIL: $name died during startup"; cat "$name.log"; exit 1; }
    sleep 0.05
  done
  [[ -f ready.txt ]] || { echo "FAIL: $name never became ready"; exit 1; }

  "$FLOOD" "$sock" 100 "$PID" \
    || { echo "FAIL: $name connection cap"; cat "$name.log"; exit 1; }

  "$IOTAX" query --socket "$sock" --dataset dataset.csv --out "$name.csv"
  cmp offline.csv "$name.csv" \
    || { echo "FAIL: $name served CSV differs from offline"; exit 1; }
  echo "ok: fresh client served byte-identically after the flood"

  kill -TERM "$PID"
  local rc=0
  wait "$PID" || rc=$?
  PID=""
  [[ $rc -eq 0 ]] || { echo "FAIL: $name exit $rc"; cat "$name.log"; exit 1; }
  grep -q "$drained" "$name.log" \
    || { echo "FAIL: no drain summary"; cat "$name.log"; exit 1; }
}

run_capped serve "$WORK/serve.sock" "serve: drained;" \
  "$IOTAX" serve --models model.gbt --socket "$WORK/serve.sock"
run_capped fleet "$WORK/fleet.sock" "fleet: drained;" \
  "$IOTAX" fleet --models model.gbt --socket "$WORK/fleet.sock" \
  --shard-dir "$WORK/shards"

echo "conn_cap_smoke: PASS"
