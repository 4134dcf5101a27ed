#!/bin/sh
# Old-vs-new experiment-layer equivalence check.
#
# The registry migration (bench/experiments/ + bench_driver) must
# reproduce each legacy bench binary's stdout byte-for-byte, modulo
# host-timing lines. This script runs the migrated binaries at a
# fixed quick scale and diffs them against golden captures taken
# from the pre-migration binaries (scripts/golden/*.stdout).
#
#   ./scripts/migration_diff.sh              # fig2 table7 table8 table9
#   ./scripts/migration_diff.sh all          # every golden
#   ./scripts/migration_diff.sh fig4 kessler # explicit list
#
# Masked lines: "[json] ..." (wall-clock + thread count) and
# "[report] ..." (host-timing extras). Everything else — every
# simulated miss count, ratio, and table cell — must match exactly.
set -e

cd "$(dirname "$0")/.."
BUILD=${BUILD:-build}
GOLDEN=scripts/golden

if [ ! -d "$BUILD/bench" ]; then
    echo "migration_diff: $BUILD/bench missing (build first)" >&2
    exit 1
fi

EXPERIMENTS="$*"
[ -z "$EXPERIMENTS" ] && EXPERIMENTS="fig2 table7 table8 table9"
if [ "$EXPERIMENTS" = "all" ]; then
    EXPERIMENTS=$(ls "$GOLDEN" | sed 's/\.stdout$//')
fi

mask() {
    grep -v '^\[json\]' | grep -v '^\[report\]'
}

fail=0
for exp in $EXPERIMENTS; do
    golden="$GOLDEN/$exp.stdout"
    if [ ! -f "$golden" ]; then
        echo "migration_diff: no golden for '$exp'" >&2
        fail=1
        continue
    fi
    out=$(mktemp)
    "$BUILD/bench/bench_driver" --run "$exp" --report \
        --scale 2000 --threads 2 | mask > "$out"
    if diff -u "$golden" "$out" > /dev/null 2>&1; then
        echo "migration_diff: $exp OK"
    else
        echo "migration_diff: $exp DIFFERS:" >&2
        diff -u "$golden" "$out" | head -40 >&2
        fail=1
    fi
    rm -f "$out"
done
exit $fail
