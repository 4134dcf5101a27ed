#!/bin/sh
# End-to-end smoke of the twserved experiment service.
#
# Starts a daemon on a temp socket, submits the fig2 1K and 32K
# rows through twctl, and diffs each served sweep bit-for-bit
# against the same spec computed in-process (twctl local, which
# calls Runner::runWithSlowdown directly). Then resubmits and
# asserts the rows came from the result cache, asserts a sweep
# larger than the job queue is rejected `overloaded`, runs the fig2
# registry experiment served-vs-local (run_experiment op) and
# requires bit-identical rows plus a fully-cached resubmit, and
# finally SIGTERMs the daemons and requires a clean drain (exit 0,
# socket unlinked).
#
# Usage: scripts/serve_smoke.sh [build-dir]
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SERVED="$BUILD/tools/twserved"
CTL="$BUILD/tools/twctl"

if [ ! -x "$SERVED" ] || [ ! -x "$CTL" ]; then
    echo "serve_smoke: tools not built, skipping" >&2
    exit 0
fi

SOCK="/tmp/twserved-smoke-$$.sock"
T=$(mktemp -d)
PID=""
EPID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$EPID" ] && kill "$EPID" 2>/dev/null || true
    rm -f "$SOCK" "/tmp/twserved-smoke-exp-$$.sock"
    rm -rf "$T"
}
trap cleanup EXIT

fail() {
    echo "serve_smoke: FAIL — $1" >&2
    exit 1
}

# Queue of 4: big enough for the 3-trial sweeps below, small enough
# to demonstrate admission control with an 8-seed sweep.
"$SERVED" --socket "$SOCK" --workers 2 --queue 4 --quiet &
PID=$!
"$CTL" --socket "$SOCK" ping --retry 100 --retry-delay-ms 50 \
    > /dev/null 2>&1 || fail "daemon did not answer ping on $SOCK"

SCALE="${TW_SCALE_DIV:-2000}"
SPEC="--workload mpeg_play --indexing virtual --scope user \
      --scale $SCALE --trials 3"

# ---- Served rows must be bit-identical to direct computation ------
for SZ in 1K 32K; do
    # shellcheck disable=SC2086  # $SPEC is a word list
    "$CTL" local $SPEC --cache "$SZ" --canonical \
        > "$T/local_$SZ.txt"
    # shellcheck disable=SC2086
    "$CTL" --socket "$SOCK" submit $SPEC --cache "$SZ" --canonical \
        > "$T/served_$SZ.txt" 2> "$T/served_$SZ.log"
    diff -u "$T/local_$SZ.txt" "$T/served_$SZ.txt" \
        || fail "served $SZ rows differ from direct Runner output"
done
echo "serve_smoke: fig2 1K/32K served rows bit-identical to local"

# ---- stats reply identity fields ----------------------------------
sv=$("$CTL" --socket "$SOCK" stats --path schema_version)
[ "$sv" = "2" ] || fail "stats schema_version is '$sv', want 2"
started=$("$CTL" --socket "$SOCK" stats --path started_at_s)
[ -n "$started" ] || fail "stats reply lacks started_at_s"
up=$("$CTL" --socket "$SOCK" stats --path uptime_s)
# Monotonic uptime: must be a non-negative number.
case "$up" in
    -*|"") fail "stats uptime_s is '$up', want >= 0" ;;
esac
echo "serve_smoke: stats identity ok (schema=$sv uptime=${up}s)"

# ---- Resubmitting an identical sweep must hit the cache -----------
hits0=$("$CTL" --socket "$SOCK" stats --path cache.hits)
# shellcheck disable=SC2086
"$CTL" --socket "$SOCK" submit $SPEC --cache 1K --canonical \
    > "$T/resub.txt" 2> "$T/resub.log"
diff -u "$T/local_1K.txt" "$T/resub.txt" \
    || fail "cached resubmit rows differ"
hits1=$("$CTL" --socket "$SOCK" stats --path cache.hits)
[ "$((hits1 - hits0))" -eq 3 ] \
    || fail "resubmit produced $((hits1 - hits0)) cache hits, want 3"
grep -q 'cached=3 computed=0' "$T/resub.log" \
    || fail "resubmit summary is not fully cached: $(cat "$T/resub.log")"
echo "serve_smoke: resubmit served from cache (hits $hits0 -> $hits1)"

# ---- A sweep larger than the queue is rejected `overloaded` -------
rc=0
# shellcheck disable=SC2086
"$CTL" --socket "$SOCK" submit $SPEC --cache 2K \
    --seeds 1,2,3,4,5,6,7,8 > /dev/null 2> "$T/over.log" || rc=$?
[ "$rc" -eq 2 ] || fail "oversized sweep exited $rc, want 2"
grep -q overloaded "$T/over.log" \
    || fail "oversized sweep not rejected overloaded: $(cat "$T/over.log")"
echo "serve_smoke: oversized sweep rejected overloaded"

# ---- A served registry experiment is bit-identical to local -------
# fig2 has more jobs than the admission-control daemon's queue of 4,
# so this phase gets its own daemon with room for the full grid. It
# starts under environment variables naming non-default experiment
# settings (pricing, sampling, an extra fig2 unit): a served
# experiment depends on its request alone, so the rows must still
# match a local run started without them.
ESOCK="/tmp/twserved-smoke-exp-$$.sock"
TW_COST_BACKEND=ideal TW_FIG2_DCACHE=1 TW_SAMPLE=1 \
    "$SERVED" --socket "$ESOCK" --workers 2 --queue 64 --quiet &
EPID=$!
"$CTL" --socket "$ESOCK" ping --retry 100 --retry-delay-ms 50 \
    > /dev/null 2>&1 || fail "experiment daemon did not answer ping"

"$CTL" local --experiment fig2 --scale "$SCALE" > "$T/exp_local.txt"
"$CTL" --socket "$ESOCK" --experiment fig2 --scale "$SCALE" submit \
    > "$T/exp_served.txt" 2> "$T/exp_served.log"
diff -u "$T/exp_local.txt" "$T/exp_served.txt" \
    || fail "served fig2 experiment rows differ from local run"
grep -q 'cached=0' "$T/exp_served.log" \
    || fail "first served fig2 unexpectedly cached: $(cat "$T/exp_served.log")"
echo "serve_smoke: served fig2 experiment bit-identical to local"

# Resubmitting the experiment must come entirely from the cache.
"$CTL" --socket "$ESOCK" --experiment fig2 --scale "$SCALE" submit \
    > "$T/exp_resub.txt" 2> "$T/exp_resub.log"
diff -u "$T/exp_local.txt" "$T/exp_resub.txt" \
    || fail "cached fig2 experiment rows differ"
grep -q 'computed=0' "$T/exp_resub.log" \
    || fail "fig2 resubmit recomputed: $(cat "$T/exp_resub.log")"

# And the daemon must account for it per experiment.
ehits=$("$CTL" --socket "$ESOCK" stats --path experiments.fig2.hits)
emiss=$("$CTL" --socket "$ESOCK" stats --path experiments.fig2.misses)
[ "$ehits" -eq "$emiss" ] && [ "$ehits" -gt 0 ] \
    || fail "fig2 lookup stats hits=$ehits misses=$emiss, want equal > 0"
echo "serve_smoke: fig2 resubmit fully cached (hits=$ehits misses=$emiss)"

kill -TERM "$EPID"
rc=0
wait "$EPID" || rc=$?
EPID=""
[ "$rc" -eq 0 ] || fail "experiment daemon exited $rc on SIGTERM"
rm -f "$ESOCK"

# ---- SIGTERM must drain cleanly -----------------------------------
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=""
[ "$rc" -eq 0 ] || fail "daemon exited $rc on SIGTERM, want 0"
[ ! -S "$SOCK" ] || fail "daemon left $SOCK behind"
echo "serve_smoke: OK (clean SIGTERM drain)"
