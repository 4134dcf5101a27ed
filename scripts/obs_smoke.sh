#!/bin/sh
# Observability smoke: the spine must light up end to end without
# perturbing results.
#
#  1. fig2 with --trace-out writes a valid Chrome trace-event JSON
#     containing at least one experiment/batch/unit/trial span
#     (twctl trace-lint parses it with the repo's strict parser).
#  2. fig2 with --metrics embeds an obs-registry snapshot (engine.*
#     counters included) under "metrics" in BENCH_fig2_slowdowns.json.
#  3. The canonical result rows are bit-identical with metrics and
#     tracing on vs off — observability is host-side only, exactly
#     like hostSeconds.
#  4. A served run's `twctl metrics --prom` output passes a
#     Prometheus exposition-format lint and names both engine and
#     serve metrics — one namespace for the whole process.
#
# Usage: scripts/obs_smoke.sh [build-dir]
set -e
cd "$(dirname "$0")/.."
ROOT=$(pwd)
BUILD="${1:-build}"
DRIVER="$ROOT/$BUILD/bench/bench_driver"
SERVED="$ROOT/$BUILD/tools/twserved"
CTL="$ROOT/$BUILD/tools/twctl"

if [ ! -x "$DRIVER" ] || [ ! -x "$SERVED" ] || [ ! -x "$CTL" ]; then
    echo "obs_smoke: tools not built, skipping" >&2
    exit 0
fi

T=$(mktemp -d)
PID=""
SOCK="/tmp/twserved-obs-$$.sock"
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -f "$SOCK"
    rm -rf "$T"
}
trap cleanup EXIT

fail() {
    echo "obs_smoke: FAIL — $1" >&2
    exit 1
}

SCALE="${TW_SCALE_DIV:-2000}"

# ---- fig2 with the full spine on ----------------------------------
(cd "$T" && "$DRIVER" --run fig2 --scale "$SCALE" --threads 2 \
    --metrics --trace-out trace.json \
    --rows rows_on.ndjson > driver_on.txt) \
    || fail "bench_driver --metrics --trace-out exited nonzero"

"$CTL" trace-lint "$T/trace.json" \
    --require experiment,batch,unit,trial \
    || fail "trace.json failed lint (valid JSON + required spans)"
echo "obs_smoke: trace valid with experiment/batch/unit/trial spans"

BENCH="$T/BENCH_fig2_slowdowns.json"
[ -f "$BENCH" ] || fail "missing $BENCH"
grep -q '"metrics"' "$BENCH" \
    || fail "BENCH report has no metrics block"
grep -q 'engine\.refs\.' "$BENCH" \
    || fail "BENCH metrics block lacks engine.refs.* counters"
grep -q 'engine\.simd\.wide_spans' "$BENCH" \
    || fail "BENCH metrics block lacks engine.simd.wide_spans"
grep -q 'engine\.simd\.scalar_tail' "$BENCH" \
    || fail "BENCH metrics block lacks engine.simd.scalar_tail"
grep -q 'engine\.runs\.chunked' "$BENCH" \
    || fail "BENCH metrics block lacks engine.runs.chunked"
grep -q 'engine\.arena\.bytes_reserved' "$BENCH" \
    || fail "BENCH metrics block lacks engine.arena.bytes_reserved"
grep -q 'engine\.arena\.trials_served' "$BENCH" \
    || fail "BENCH metrics block lacks engine.arena.trials_served"
# The trials of this sweep must have been arena-served: nonzero is
# part of the contract (the snapshot is compact JSON, so extract the
# key:value pair rather than parsing lines).
trials=$(grep -oE '"engine\.arena\.trials_served"[: ]+[0-9.]+' "$BENCH" \
    | grep -oE '[0-9.]+$')
[ -n "$trials" ] && [ "$(awk -v t="$trials" 'BEGIN { print (t > 0) }')" = 1 ] \
    || fail "engine.arena.trials_served is '$trials' — trials bypassed the arena"
# fig2's I-cache runs take the fetch-only loop, which counts the run
# pieces it takes.
pieces=$(grep -oE '"engine\.runs\.chunked"[: ]+[0-9.]+' "$BENCH" \
    | grep -oE '[0-9.]+$')
[ -n "$pieces" ] && [ "$(awk -v p="$pieces" 'BEGIN { print (p > 0) }')" = 1 ] \
    || fail "engine.runs.chunked is '$pieces' — no run pieces counted"
# Every trial the experiment engine dispatches must tick trials.run
# (the sampling subsystem's adaptive stopping reads the same
# counter, so a sweep that bypasses it would hide early stops).
run_ctr=$(grep -oE '"trials\.run"[: ]+[0-9.]+' "$BENCH" \
    | grep -oE '[0-9.]+$')
[ -n "$run_ctr" ] && [ "$(awk -v r="$run_ctr" 'BEGIN { print (r > 0) }')" = 1 ] \
    || fail "trials.run is '$run_ctr' — trial dispatch bypassed the obs registry"
echo "obs_smoke: BENCH report carries engine counters under metrics"

# ---- bit-identity: same rows with the spine off -------------------
(cd "$T" && "$DRIVER" --run fig2 --scale "$SCALE" --threads 2 \
    --rows rows_off.ndjson > driver_off.txt) \
    || fail "plain bench_driver run exited nonzero"
diff -u "$T/rows_off.ndjson" "$T/rows_on.ndjson" \
    || fail "canonical rows differ with metrics/tracing enabled"
echo "obs_smoke: rows bit-identical with observability on vs off"

# ---- served metrics: prom exposition over one namespace -----------
"$SERVED" --socket "$SOCK" --workers 2 --queue 8 --quiet &
PID=$!
i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon did not create $SOCK"
    kill -0 "$PID" 2>/dev/null || fail "daemon died during startup"
    sleep 0.05
done

# One small served sweep so engine counters accumulate in-daemon.
"$CTL" --socket "$SOCK" submit --workload mpeg_play --cache 1K \
    --indexing virtual --scope user --scale "$SCALE" --trials 1 \
    --canonical > /dev/null 2>&1 \
    || fail "served warm-up sweep failed"

"$CTL" --socket "$SOCK" metrics --prom > "$T/metrics.prom" \
    || fail "twctl metrics --prom exited nonzero"

# Exposition lint: every line is a comment ('# HELP'/'# TYPE') or a
# sample `name[{labels}] value`.
awk '
    /^$/ { next }
    /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( |$)/ { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$/ { next }
    { print "bad line " NR ": " $0; bad = 1 }
    END { exit bad }
' "$T/metrics.prom" || fail "prom output failed exposition lint"

grep -q '^tw_serve_' "$T/metrics.prom" \
    || fail "prom output lacks tw_serve_* metrics"
grep -q '^tw_engine_' "$T/metrics.prom" \
    || fail "prom output lacks tw_engine_* metrics"
echo "obs_smoke: prom exposition lints, engine+serve in one namespace"

kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=""
[ "$rc" -eq 0 ] || fail "daemon exited $rc on SIGTERM"
echo "obs_smoke: OK"
