#!/bin/sh
# Perf gate: the repository benchmark (perfbench/README.md) on its two
# engine workloads, checked against ratios recorded here.
#
#   hits   — mpeg_play on a 1 MB I-cache: almost nothing traps, so the
#            span loop's fetch-only instantiation, which takes the
#            streams a run at a time, and the streams' run state
#            machine carry it. This is the paper's speed claim: host
#            hardware filters hits, so a run slows with its miss ratio
#            and not with its reference count.
#   misses — the same stream on a 1 KB unified cache: the same span
#            loop, instantiated for data traps, then trap delivery,
#            trap set/clear and the cost backend.
#
# Each runs `python3 perfbench/run.py --workload W --seed 1 --seconds 5
# --trace 0`, which builds twbench from this checkout's src/ and checks
# every op's outcome digest and registry counts as it runs. The gate
# fails when a run does not build or run, when it is not `correct` or
# has a failed op, or when its op_rel_p50 is above the ratio recorded
# below by more than the bound BENCHMARK.json sets on op_rel_p50 (0.25,
# so 1.25x). op_rel_p50 is op time over a reference kernel timed right
# after the op, so it follows the code and not the load on a shared
# host.
#
# The recorded ratios are the medians of seeds 1-7, 5 s runs, on a
# 4-vCPU AVX-512 host (GCC 12.2, RelWithDebInfo). Hits, recorded again
# once the stream's ladder levels became integer records with integer
# draw thresholds, read 9.64-10.10; the same seeds read 11.88-13.45
# (median 13.30) with the double-based run state machine before it,
# 1.36x the recorded ratio, so the gate sees a fall back to it, and
# about 22 with the loop that wrote every address into a buffer.
# Misses, recorded again at the same change, read 10.40-11.20
# (10.75-11.86, median 11.13, with the double-based state machine;
# 12.1-13.3 with the buffer loop). The span loop on a
# hit-dominated cache, which misses never runs, is held by exact
# counts in tier-1 instead: FastPath.BitIdenticalLargeCache bounds
# each instantiation's single probes per ref and refs per run piece.
#
# Usage: scripts/perf_smoke.sh   (perfbench builds into
# $CARGO_TARGET_DIR, or .bench_build when that is unset)
set -e
cd "$(dirname "$0")/.."

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

status=0
for w_ratio in hits:9.8 misses:10.7; do
    w=${w_ratio%%:*}
    ratio=${w_ratio#*:}
    if ! python3 perfbench/run.py --workload "$w" --seed 1 --seconds 5 \
        --trace 0 > "$T/$w.out" 2> "$T/$w.err"; then
        tail -n 20 "$T/$w.err" >&2
        echo "perf_smoke: FAIL — $w: perfbench did not build or run" >&2
        status=1
        continue
    fi
    tail -n 1 "$T/$w.out" | python3 -c '
import json, sys
w, ratio = sys.argv[1], float(sys.argv[2])
with open("BENCHMARK.json") as f:
    bound = 1 + next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "op_rel_p50")
try:
    r = json.loads(sys.stdin.read())
    rel = r["metrics"]["op_rel_p50"]["value"]
    correct, failed, attempted = r["correct"], r["failed"], r["attempted"]
except (ValueError, KeyError, TypeError) as e:
    sys.exit(f"perf_smoke: FAIL — {w}: no result line ({e!r})")
limit = bound * ratio
if not correct or failed:
    sys.exit(f"perf_smoke: FAIL — {w}: {failed} of {attempted} ops "
             f"failed their digest or count check")
if rel > limit:
    sys.exit(f"perf_smoke: FAIL — {w}: op_rel_p50 {rel:.2f} is above "
             f"{limit:.2f} ({bound} x the recorded {ratio})")
print(f"perf_smoke: OK — {w}: op_rel_p50 {rel:.2f} "
      f"({rel / ratio:.2f} x the recorded {ratio}; limit {limit:.2f}), "
      f"{attempted} ops correct")
' "$w" "$ratio" || status=1
done
exit $status
