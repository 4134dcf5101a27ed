#!/bin/sh
# Sampling smoke: the two estimators must actually pay for themselves
# end to end.
#
#  1. fig2 (mpeg_play I-cache sweep, ~1M-ref budget at the smoke
#     scale) runs twice with DMA quiesced (--no-dma): once full,
#     once with representative-interval sampling at a 1024-ref
#     interval (--sample --sample-interval 1024). Every tw/<size> estimate must land within 2% of the
#     full run (or inside 3x its own reported CI half-width), and the
#     sweep must replay at least 10x fewer references than it
#     estimates for (BENCH sample_refs_total / sample_refs_simulated).
#  2. table8 with --ci-target 0.10 turns the fixed 16-trial plan
#     into an adaptive one: the total trial count must drop below the
#     fixed plan's, and the obs registry must show sampling and
#     early-stop counters moving.
#
# Usage: scripts/sample_smoke.sh [build-dir]
set -e
cd "$(dirname "$0")/.."
ROOT=$(pwd)
BUILD="${1:-build}"
DRIVER="$ROOT/$BUILD/bench/bench_driver"

if [ ! -x "$DRIVER" ]; then
    echo "sample_smoke: $DRIVER not built, skipping" >&2
    exit 0
fi

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

fail() {
    echo "sample_smoke: FAIL — $1" >&2
    exit 1
}

SCALE="${TW_SCALE_DIV:-2000}"

# ---- fig2: full vs interval-sampled, same DMA-quiesced specs ------
(cd "$T" && "$DRIVER" --run fig2 --scale "$SCALE" --threads 2 \
    --no-dma --rows rows_full.ndjson > full.txt) \
    || fail "full fig2 run exited nonzero"
# 1024-ref intervals give the ~300K-ref smoke budget a few hundred
# intervals to cluster (the 16384 default leaves too few intervals
# over the ~18 representatives for a 10x win at this scale).
(cd "$T" && "$DRIVER" --run fig2 --scale "$SCALE" --threads 2 \
    --no-dma --sample --sample-interval 1024 \
    --metrics --rows rows_sampled.ndjson > sampled.txt) \
    || fail "sampled fig2 run exited nonzero"

# unit estMisses [ciHalfWidth] per tw/<size> row, one line each.
tw_rows() {
    grep '"unit":"tw/' "$1" | while IFS= read -r line; do
        unit=$(printf '%s' "$line" \
            | grep -o '"unit":"[^"]*"' | cut -d'"' -f4)
        est=$(printf '%s' "$line" \
            | grep -o '"estMisses":[0-9.eE+-]*' | cut -d: -f2)
        ci=$(printf '%s' "$line" \
            | grep -o '"ciHalfWidth":[0-9.eE+-]*' | cut -d: -f2)
        printf '%s %s %s\n' "$unit" "$est" "${ci:-0}"
    done
}
tw_rows "$T/rows_full.ndjson" | sort > "$T/full.tsv"
tw_rows "$T/rows_sampled.ndjson" | sort > "$T/sampled.tsv"
[ -s "$T/full.tsv" ] || fail "no tw/ rows in the full run"
n_full=$(wc -l < "$T/full.tsv")
n_samp=$(wc -l < "$T/sampled.tsv")
[ "$n_full" = "$n_samp" ] || fail "row count mismatch ($n_full vs $n_samp)"

paste "$T/full.tsv" "$T/sampled.tsv" | awk '
    $1 != $4 { print "unit mismatch " $1 " vs " $4; bad = 1 }
    {
        full = $2; est = $5; ci = $6
        err = est - full; if (err < 0) err = -err
        tol = 0.02 * full; if (3 * ci > tol) tol = 3 * ci
        if (full == 0 && est != 0) {
            print "unit " $1 ": full=0 but est=" est; bad = 1
        } else if (full != 0 && err > tol) {
            printf "unit %s: est %g vs full %g (err %.2f%%, ci %g)\n",
                $1, est, full, 100 * err / full, ci
            bad = 1
        }
    }
    END { exit bad }
' || fail "a sampled estimate missed the full run by >2% and >3x CI"
echo "sample_smoke: all $n_full sampled estimates within 2% (or 3x CI) of full"

BENCH="$T/BENCH_fig2_slowdowns.json"
[ -f "$BENCH" ] || fail "missing $BENCH"
json_num() {
    grep -oE "\"$2\"[: ]+[0-9.eE+-]+" "$1" | head -1 \
        | grep -oE '[0-9.eE+-]+$'
}
refs_sim=$(json_num "$BENCH" "sample_refs_simulated")
refs_total=$(json_num "$BENCH" "sample_refs_total")
[ -n "$refs_sim" ] && [ -n "$refs_total" ] \
    || fail "BENCH report lacks sample_refs_* metrics"
speedup=$(awk -v s="$refs_sim" -v t="$refs_total" \
    'BEGIN { printf "%.1f", (s > 0) ? t / s : 0 }')
[ "$(awk -v x="$speedup" 'BEGIN { print (x >= 10) }')" = 1 ] \
    || fail "refs drop is only ${speedup}x (need >= 10x): $refs_sim of $refs_total"
echo "sample_smoke: sampled sweep replayed ${speedup}x fewer refs ($refs_sim of $refs_total)"

# The interval sampler's own counters must be in the obs snapshot.
for c in engine.sample.runs engine.sample.intervals_total \
         engine.sample.intervals_simulated engine.sample.refs_skipped \
         engine.sample.profile_refs; do
    grep -q "\"$c\"" "$BENCH" \
        || fail "BENCH metrics block lacks $c"
done
echo "sample_smoke: engine.sample.* counters present in the obs snapshot"

# ---- table8: CI-driven adaptive stopping --------------------------
(cd "$T" && "$DRIVER" --run table8 --scale "$SCALE" --threads 2 \
    --ci-target 0.10 --metrics > table8.txt) \
    || fail "adaptive table8 run exited nonzero"
T8="$T/BENCH_table8_sampling.json"
[ -f "$T8" ] || fail "missing $T8"
trials=$(json_num "$T8" "trials")
# Fixed plan: 6 sizes x 2 columns x 16 trials = 192. The unsampled
# columns have zero trial variance and must stop at minTrials; the
# sampled columns stop once the 10% CI target holds. Anything not
# clearly below 192 means the stop rule never fired.
[ -n "$trials" ] || fail "BENCH table8 report lacks the trials metric"
[ "$(awk -v t="$trials" 'BEGIN { print (t >= 48 && t <= 160) }')" = 1 ] \
    || fail "adaptive table8 ran $trials trials (expected 48..160 of 192)"
stopped=$(json_num "$T8" "trials.stopped_early")
[ -n "$stopped" ] \
    && [ "$(awk -v s="$stopped" 'BEGIN { print (s > 0) }')" = 1 ] \
    || fail "trials.stopped_early is '$stopped' — the stop rule never fired"
run_ctr=$(json_num "$T8" "trials.run")
[ -n "$run_ctr" ] \
    && [ "$(awk -v r="$run_ctr" -v t="$trials" 'BEGIN { print (r == t) }')" = 1 ] \
    || fail "trials.run counter ($run_ctr) disagrees with the report ($trials)"
echo "sample_smoke: adaptive table8 ran $trials of 192 trials, $stopped units stopped early"
echo "sample_smoke: OK"
