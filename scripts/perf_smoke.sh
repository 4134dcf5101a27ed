#!/bin/sh
# Perf smoke test for the trap-filtered hit fast paths.
#
# Runs the fig2_rate host-rate probe: the instrumented large-cache
# fig2 row (1M icache, miss ratio well under 1%) once as an I-cache
# and once as a unified cache, so ONE run measures BOTH
# instantiations of the span loop on their hit-dominated
# configurations:
#
#   tw_refs_per_sec  — the fetch-only one (I-cache: no deliverable
#                      data kinds, bulk accounting, SIMD same-page
#                      span consumption);
#   twd_refs_per_sec — the data-delivering one (unified cache:
#                      loads/stores delivered, refs on trapped pages
#                      probed singly, SIMD page-span trap probes).
#
# Each rate must be at least MIN_PCT percent of its checked-in floor
# (scripts/perf_baseline.json). A regression that loses either fast
# path shows up as a many-x drop, far below the threshold, while
# machine-to-machine variation stays well above it. The run happens
# in a scratch directory so the checked-in BENCH json is untouched,
# at the 1/20 scale and the one thread the floors were set at.
#
# Usage: scripts/perf_smoke.sh [build-dir]
set -e
cd "$(dirname "$0")/.."
ROOT=$(pwd)
BUILD="${1:-build}"
BENCH="$ROOT/$BUILD/bench/bench_driver"
BASELINE="$ROOT/scripts/perf_baseline.json"
MIN_PCT=70

if [ ! -x "$BENCH" ]; then
    echo "perf_smoke: $BENCH not built, skipping" >&2
    exit 0
fi

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

# 1/20 scale runs ~100M references (~150 ms): long enough that the
# rate is not dominated by per-trial setup or timer noise.
(cd "$T" && "$BENCH" --run fig2_rate --scale 20 --threads 1 \
    --report > /dev/null)

json_num() {
    awk -F: -v k="\"$2\"" '$1 ~ k { gsub(/[ ,]/, "", $2); print $2 }' "$1"
}

status=0
for key in tw_refs_per_sec twd_refs_per_sec; do
    rate=$(json_num "$T/BENCH_fig2_rate.json" "$key")
    base=$(json_num "$BASELINE" "$key")
    if [ -z "$rate" ] || [ -z "$base" ]; then
        echo "perf_smoke: FAIL ($key: rate='$rate' base='$base')" >&2
        status=1
        continue
    fi
    ok=$(awk -v r="$rate" -v b="$base" -v p="$MIN_PCT" \
        'BEGIN { print (r >= b * p / 100) ? 1 : 0 }')
    pct=$(awk -v r="$rate" -v b="$base" \
        'BEGIN { printf "%.0f", 100 * r / b }')
    if [ "$ok" != 1 ]; then
        echo "perf_smoke: FAIL — $key $rate refs/s is ${pct}% of baseline $base (need >= ${MIN_PCT}%)" >&2
        status=1
    else
        echo "perf_smoke: OK — $key $rate refs/s (${pct}% of baseline $base)"
    fi
done
exit $status
