#!/usr/bin/env bash
# End-to-end smoke of the serve daemon: start it, drive >= 32
# concurrent clients with a mixed diet (identical workload cells,
# fuzz-family programs, an imported branch trace), require every
# request to succeed and the cache hit-rate metric to be positive,
# then check a clean SIGTERM drain. Shared by the serve_smoke ctest
# and the CI serve-smoke job:
#
#   tools/serve_smoke.sh <path-to-ppm> <path-to-sample-trace>
set -euo pipefail

PPM=${1:?usage: serve_smoke.sh <ppm-binary> <sample-trace>}
TRACE=${2:?usage: serve_smoke.sh <ppm-binary> <sample-trace>}

WORKDIR=$(mktemp -d)
SOCK="$WORKDIR/ppm.sock"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null
    rm -rf "$WORKDIR"
    return 0
}
trap cleanup EXIT

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

# --- exit-code contract ----------------------------------------------
"$PPM" --version | grep -q "ppm-serve-v1" \
    || fail "--version must list ppm-serve-v1"
set +e
"$PPM" serve >/dev/null 2>&1
[ $? -eq 2 ] || fail "serve without --socket/--port must exit 2"
PPM_THREADS=notanumber "$PPM" analyze compress --max 1000 \
    >/dev/null 2>&1
[ $? -eq 2 ] || fail "malformed env must exit 2"
set -e

# --- start the daemon ------------------------------------------------
"$PPM" serve --socket "$SOCK" --max-inflight 48 \
    > "$WORKDIR/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon died at startup"
    sleep 0.1
done
[ -S "$SOCK" ] || fail "socket never appeared"

# --- concurrent mixed load -------------------------------------------
# 36 concurrent client processes: 12 identical workload cells, 12
# fuzz-family programs across two families and two seeds, 12
# imported-branch-trace requests.
PIDS=()
for i in $(seq 1 12); do
    "$PPM" client --socket "$SOCK" --workload compress --max 60000 \
        --id "wl-$i" > "$WORKDIR/wl-$i.out" 2>&1 &
    PIDS+=($!)
    if [ $((i % 2)) -eq 0 ]; then fam=branch-corr; else fam=pointer-chase; fi
    "$PPM" client --socket "$SOCK" --family "$fam" \
        --seed $((1 + i % 2)) --predictor context \
        --id "fam-$i" > "$WORKDIR/fam-$i.out" 2>&1 &
    PIDS+=($!)
    "$PPM" client --socket "$SOCK" --trace-file "$TRACE" \
        --predictor context --id "tr-$i" \
        > "$WORKDIR/tr-$i.out" 2>&1 &
    PIDS+=($!)
done

FAILED=0
for pid in "${PIDS[@]}"; do
    wait "$pid" || FAILED=$((FAILED + 1))
done
[ "$FAILED" -eq 0 ] || fail "$FAILED of ${#PIDS[@]} client runs failed"

BAD=$(grep -L '"status":"ok"' "$WORKDIR"/wl-*.out \
      "$WORKDIR"/fam-*.out "$WORKDIR"/tr-*.out || true)
[ -z "$BAD" ] || fail "non-ok response in: $BAD"

# --- --count exit-code aggregation -----------------------------------
# A --count batch exits 0 only when every response is ok; any failing
# response in the batch (here: every one, an unknown workload) must
# surface as a non-zero exit even though all N responses printed.
"$PPM" client --socket "$SOCK" --workload compress --max 60000 \
    --count 3 --id batch > "$WORKDIR/batch-ok.out" \
    || fail "all-ok --count batch must exit 0"
[ "$(grep -c '"status":"ok"' "$WORKDIR/batch-ok.out")" -eq 3 ] \
    || fail "--count 3 must print 3 ok responses"
set +e
"$PPM" client --socket "$SOCK" --workload no-such-workload \
    --count 2 --id bad > "$WORKDIR/batch-bad.out" 2>&1
RC=$?
set -e
[ "$RC" -ne 0 ] || fail "failing --count batch must exit non-zero"
[ "$(grep -c '"status":"error"' "$WORKDIR/batch-bad.out")" -eq 2 ] \
    || fail "failing batch must still print every response"

# --- exported cache counters -----------------------------------------
# A pass-1 profile is shared only while requests for its key overlap
# in flight, so the hit count depends on timing; the keys must exist.
STATS=$("$PPM" client --socket "$SOCK" --stats)
echo "$STATS"
for key in capture_hits capture_misses hit_rate_pct; do
    echo "$STATS" | grep -q "\"$key\":" \
        || fail "stats reply lacks cache.$key"
done

# --- graceful SIGTERM drain ------------------------------------------
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
RC=$?
set -e
[ "$RC" -eq 0 ] || fail "daemon exited $RC after SIGTERM"
grep -q "drained" "$WORKDIR/serve.log" || fail "no drain banner in log"
if [ -S "$SOCK" ]; then
    fail "socket file not removed on drain"
fi
SERVE_PID=""

echo "serve_smoke: OK (${#PIDS[@]} concurrent requests served)"
