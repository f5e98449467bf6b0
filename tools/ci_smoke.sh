#!/usr/bin/env bash
# ci_smoke.sh — the multi-process end-to-end checks of a built tree: real
# leafctl processes, real localhost sockets, SIGKILL.  Everything a single
# process can prove lives in ctest instead (the `smoke` label pins the
# bench goldens and fingerprints).
#
#   tools/ci_smoke.sh <build-dir>
#
# Steps:
#   1. `leafctl serve` at LEAF_THREADS=1 and 4 writes identical drift
#      events and logical scrape series (wall-clock fields masked);
#   2. one live `serve --listen --trace-out --slo` server answers status,
#      predict, metrics and SLO queries, and its trace links the whole
#      predict path (request -> decode -> admission -> batch ->
#      shard-predict -> respond);
#   3. a fleet SIGKILLed after its first snapshot and resumed serves the
#      same leaf_fleet_* series as an uninterrupted run, and `leafctl top`
#      renders it.
# Uses localhost ports 47113, 47411 and 47412.  Work files go to
# <build-dir>/ci_smoke.
set -euo pipefail

build=$(cd "${1:?usage: tools/ci_smoke.sh <build-dir>}" && pwd)
leafctl="$build/examples/leafctl"
work="$build/ci_smoke"
rm -rf "$work"
mkdir -p "$work"
cd "$work"
export LEAF_SCALE=small

pids=()
trap 'for p in "${pids[@]}"; do kill -9 "$p" 2>/dev/null || true; done' EXIT
die() {
  echo "FAIL: $*" >&2
  exit 1
}
query() {
  local port=$1
  shift
  "$leafctl" query --connect "127.0.0.1:$port" "$@"
}
wait_listening() {
  for _ in $(seq 1 120); do
    if query "$1" --status >/dev/null 2>&1; then return 0; fi
    sleep 0.5
  done
  die "nothing listening on port $1"
}
# Queries are answered between fleet steps, so three identical consecutive
# step counts mean the fleet has completed.
wait_fleet_done() {
  local prev="" same=0 steps
  for _ in $(seq 1 240); do
    steps=$(query "$1" --status 2>/dev/null |
      sed -n 's/^fleet: \([0-9]*\) steps.*/\1/p') || true
    if [ -n "$steps" ] && [ "$steps" = "$prev" ]; then
      same=$((same + 1))
      if [ "$same" -ge 3 ]; then return 0; fi
    else
      same=0
    fi
    prev="$steps"
    sleep 0.5
  done
  die "fleet on port $1 never settled"
}

echo "== 1. serve telemetry identical at LEAF_THREADS=1 and 4"
for t in 1 4; do
  LEAF_THREADS=$t "$leafctl" serve --kpis DVol,PU --scheme Triggered \
    --shards 4 --events-out "events_t$t.jsonl" \
    --metrics-out "metrics_t$t.txt" >"serve_t$t.log" 2>&1
  # elapsed_seconds is the one wall-clock event key, and *_seconds series
  # are wall-clock by naming convention.
  sed -E 's/, "elapsed_seconds": [^,}]*//' "events_t$t.jsonl" \
    >"events_t$t.masked"
  awk '!/^#/ && NF { n = $0; sub(/[{ ].*/, "", n); if (n !~ /_seconds/) print }' \
    "metrics_t$t.txt" >"metrics_t$t.logical"
done
[ -s events_t1.masked ] || die "empty event log"
[ -s metrics_t1.logical ] || die "empty scrape"
diff events_t1.masked events_t4.masked ||
  die "drift-event streams differ across thread counts"
diff metrics_t1.logical metrics_t4.logical ||
  die "logical series differ across thread counts"
# Shards step the shared walk-forward loop under the serve.* span names,
# and latencies are summaries (no fixed-bucket histograms).
for site in serve.step serve.init_fit serve.retrain_fit; do
  grep -Eq "^leaf_span_calls_total\{site=\"$site\"\} [1-9]" metrics_t1.txt ||
    die "span site missing: $site"
done
if grep -Eq '^# TYPE .* histogram$' metrics_t1.txt; then
  die "histogram in scrape"
fi
echo "ok: $(wc -l <events_t1.masked) events and" \
  "$(wc -l <metrics_t1.logical) logical series identical"

echo "== 2. live server: status, predict, metrics, SLO, linked trace"
# --serve-requests ends the server once it has answered 8 requests, which
# the status queries after the checks make up.
"$leafctl" serve --kpis DVol --shards 2 --listen 127.0.0.1:47113 \
  --serve-requests 8 --trace-out trace_live.json \
  --slo "window=4,deadline-miss=0.5,shed=0.5" >serve_live.log 2>&1 &
live=$!
pids+=("$live")
wait_listening 47113
query 47113 --predict --shard 0 --rows 2
query 47113 --metrics --json >metrics_live.json
grep -q '^{"metrics": \[{' metrics_live.json || die "empty metrics section"
query 47113 --slo >slo_live.txt
grep leaf_slo_state slo_live.txt || die "no leaf_slo_state in --slo"
for _ in $(seq 1 8); do
  query 47113 --status >/dev/null 2>&1 || break
done
wait "$live"
# One (trace id, span name) pair per line; some trace must hold all six.
sed -nE 's/^\{"name": "([^"]+)".*"trace_id": "([0-9a-f]+)".*/\2 \1/p' \
  trace_live.json | sort -u |
  awk '$2 ~ /^(request|decode|admission|batch|shard-predict|respond)$/ {
         n[$1]++ }
       END { for (t in n) if (n[t] == 6) ok = 1; exit !ok }' ||
  die "no trace links the full predict path"
echo "ok: $(grep -c '"name"' trace_live.json) live spans"

echo "== 3. SIGKILL + --resume serves byte-identical series"
# A fixed 10-step range well inside the run; the "store at step" header
# counts nondeterministic drain ticks, so it is dropped.
query_series() {
  query "$1" --series 'leaf_fleet_*' --resolution 10 --from 0 --to 500 \
    --max-series 32 | grep -v 'store at step'
}
# Uninterrupted reference run.
"$leafctl" serve --kpis DVol --shards 2 --listen 127.0.0.1:47411 \
  >serve_a.log 2>&1 &
a=$!
pids+=("$a")
wait_fleet_done 47411
query_series 47411 >series-a.txt
kill "$a"
# Victim run: SIGKILL after the first snapshot lands, then resume.
"$leafctl" serve --kpis DVol --shards 2 --listen 127.0.0.1:47412 \
  --snapshot-every 150 --snapshot-dir snaps >serve_b.log 2>&1 &
b=$!
pids+=("$b")
for _ in $(seq 1 240); do
  if ls snaps/*.leafsnap >/dev/null 2>&1; then break; fi
  sleep 0.5
done
ls snaps/*.leafsnap >/dev/null || die "no snapshot written"
kill -9 "$b"
"$leafctl" serve --kpis DVol --shards 2 --listen 127.0.0.1:47412 \
  --snapshot-every 150 --snapshot-dir snaps --resume >serve_b2.log 2>&1 &
b2=$!
pids+=("$b2")
wait_fleet_done 47412
query_series 47412 >series-b.txt
[ -s series-a.txt ] || die "empty reference series"
diff series-a.txt series-b.txt || die "resumed fleet serves different series"
# leafctl top renders the live fleet view over the same socket, with real
# responses counted over every label set.
"$leafctl" top --connect 127.0.0.1:47412 --iterations 1 >top.txt
cat top.txt
grep -q 'fleet' top.txt || die "top: no fleet line"
grep -q 'shard' top.txt || die "top: no shard table"
grep -Eq '^net: +[1-9]' top.txt || die "top: no responses counted"
kill "$b2"
echo "ok: ci_smoke passed"
