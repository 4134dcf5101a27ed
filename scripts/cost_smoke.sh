#!/bin/sh
# Cost-backend smoke: the pluggable pricing layer must (a) leave the
# default byte-identical and (b) actually change time when swapped.
#
#  1. Default path untouched: every checked-in golden (including the
#     new dram_dilation one) still matches byte-for-byte via
#     migration_diff.sh all.
#  2. The dram_dilation sweep's BENCH report carries non-zero
#     row-hit AND row-conflict tallies — the bank state machine is
#     live, with both contention outcomes observed — and a dram
#     dilation measurably different from the flat table5 model on
#     the same sweep.
#  3. Backend selection fails fast on typos: a bogus
#     --cost-backend dies before any simulation.
#  4. twsim/twctl accept --cost-backend (ideal prices the same
#     misses cheaper than the default on an identical run).
#
# Usage: scripts/cost_smoke.sh [build-dir]
set -e
cd "$(dirname "$0")/.."
ROOT=$(pwd)
BUILD="${1:-build}"
DRIVER="$ROOT/$BUILD/bench/bench_driver"
TWSIM="$ROOT/$BUILD/examples/twsim"

if [ ! -x "$DRIVER" ] || [ ! -x "$TWSIM" ]; then
    echo "cost_smoke: tools not built, skipping" >&2
    exit 0
fi

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

fail() {
    echo "cost_smoke: FAIL — $1" >&2
    exit 1
}

SCALE="${TW_SCALE_DIV:-2000}"

# ---- 1. default backend byte-identical ----------------------------
./scripts/migration_diff.sh all \
    || fail "a golden drifted under the default backend"
echo "cost_smoke: default backend goldens clean"

# ---- 2. dram dilation sweep ---------------------------------------
(cd "$T" && "$DRIVER" --run dram_dilation --scale "$SCALE" \
    --threads 2 --report > driver.txt) \
    || fail "bench_driver --run dram_dilation exited nonzero"
BENCH="$T/BENCH_dram_dilation.json"
[ -f "$BENCH" ] || fail "missing $BENCH"

metric() {
    awk -F'[:,]' -v key="\"$1\"" \
        '$1 ~ key {gsub(/[ \t]/, "", $2); print $2}' "$BENCH"
}
ROW_HITS=$(metric dram_row_hits)
ROW_CONFLICTS=$(metric dram_row_conflicts)
GAP=$(metric max_rel_dilation_gap)
[ -n "$ROW_HITS" ] && [ "${ROW_HITS%.*}" -gt 0 ] \
    || fail "engine.cost.row_hits not positive (got '$ROW_HITS')"
[ -n "$ROW_CONFLICTS" ] && [ "${ROW_CONFLICTS%.*}" -gt 0 ] \
    || fail "engine.cost.row_conflicts not positive (got '$ROW_CONFLICTS')"
awk -v g="$GAP" 'BEGIN { exit !(g + 0 >= 0.01) }' \
    || fail "dram dilation within 1% of table5 everywhere (gap=$GAP)"
echo "cost_smoke: dram row_hits=$ROW_HITS" \
    "row_conflicts=$ROW_CONFLICTS max_rel_dilation_gap=$GAP"

# ---- 3. typos die before simulating -------------------------------
if "$DRIVER" --run fig2 --cost-backend bogus >/dev/null 2>&1; then
    fail "--cost-backend bogus was accepted"
fi
echo "cost_smoke: malformed backend spec rejected"

# ---- 4. twsim swap actually reprices ------------------------------
run_cycles() {
    "$TWSIM" --workload mpeg_play \
        --scale "$SCALE" --cost-backend "$1" --csv \
        | awk -F, 'NR == 2 { print $7 }'
}
T5=$(run_cycles table5)
IDEAL=$(run_cycles ideal)
[ -n "$T5" ] && [ -n "$IDEAL" ] || fail "twsim --cost-backend broke"
[ "$IDEAL" -lt "$T5" ] \
    || fail "ideal backend not cheaper (ticks $IDEAL vs $T5)"
echo "cost_smoke: ideal ticks $IDEAL < table5 ticks $T5"

echo "cost_smoke: OK"
