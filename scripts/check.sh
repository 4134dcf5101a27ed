#!/bin/sh
# Full verification pass: configure, build, run all tests (serial
# and with parallel trial dispatch), run AddressSanitizer,
# UndefinedBehaviorSanitizer and ThreadSanitizer builds of the
# engine and parallel harness tests, then run every registered
# experiment and bench binary, and last the perf gate.
# TW_SCALE_DIV can shrink the workloads for a quick smoke run
# (e.g. TW_SCALE_DIV=2000 ./scripts/check.sh).
set -e
cmake -B build -G Ninja
cmake --build build

# Tier-1 suite three ways: once serial, once dispatching trials
# across 4 workers, and once with the wide trap-bitmap scans forced
# scalar — the results must agree bit-for-bit in every
# mode (the parallel_trials and fast-path suites assert this
# directly; running everything each way keeps every other test
# honest about hidden shared state and SIMD/scalar divergence too).
# TW_THREADS and TW_NO_SIMD reach the suites through the shared test
# main (tests/test_main.cc), the only place tests read them.
TW_THREADS=1 ctest --test-dir build --output-on-failure -j"$(nproc)"
TW_THREADS=4 ctest --test-dir build --output-on-failure -j"$(nproc)"
TW_NO_SIMD=1 ctest --test-dir build --output-on-failure -j"$(nproc)"

# AddressSanitizer pass over the engine: the span loop indexes the
# page table and the trap bitmaps by page and granule, scans only the
# bitmap words a run piece covers (TapewormTlb's bitmap is unpadded),
# and cuts a piece back when a data ref faults or is delivered, in
# both its fetch-only and data-delivering instantiations; the
# integration suite (FastPath included), the OS model and the
# simulator core drive every such path. The workload suite walks
# every suite stream's runs against its address batches. The serve
# and shard suites ride along: the wire codec, the line readers and
# the router's nonblocking buffers are parsing and buffer code fed
# straight from sockets. So does the spec reader, which parses
# request bytes straight off a socket: the spec suites, the seeded
# mutation of canonical text and the registry-wide round trip run
# under both sanitizers.
SPEC_SUITES='SpecIo.*:SpecMutation.*:ExperimentRegistry.*'
cmake -B build-asan -G Ninja -DTW_SANITIZE=address
cmake --build build-asan --target test_integration test_os test_core \
    test_serve test_shard test_harness test_workload
./build-asan/tests/test_integration
./build-asan/tests/test_os
./build-asan/tests/test_workload
./build-asan/tests/test_core
./build-asan/tests/test_serve
./build-asan/tests/test_shard
./build-asan/tests/test_harness --gtest_filter="$SPEC_SUITES"

# UndefinedBehaviorSanitizer pass over the same engine suites plus
# the memory model, the spec suites and the serve and shard suites:
# the loops' pointer rewinds, their shifts by the trap granule, the
# streams' run arithmetic, the cache's index arithmetic and the
# number conversions of the spec reader, the wire and the router's
# worker links (a fake worker
# answers with a number no u64 holds) are where undefined behaviour
# would hide (the build adds float-cast-overflow, which GCC's
# undefined group leaves out). Any report stops the test binary
# (-fno-sanitize-recover), so the step fails.
cmake -B build-ubsan -G Ninja -DTW_SANITIZE=undefined
cmake --build build-ubsan --target test_integration test_os test_core \
    test_mem test_harness test_serve test_shard test_workload
./build-ubsan/tests/test_integration
./build-ubsan/tests/test_os
./build-ubsan/tests/test_workload
./build-ubsan/tests/test_core
./build-ubsan/tests/test_mem
./build-ubsan/tests/test_harness --gtest_filter="$SPEC_SUITES"
./build-ubsan/tests/test_serve
./build-ubsan/tests/test_shard

# ThreadSanitizer pass over the concurrency-bearing suites, so the
# Runner baseline-memo race stays fixed. Death tests fork, which
# TSan dislikes; the parallel/threading suites are what matter here.
# The fast-path equivalence suite rides along: each trial runs the
# span loop, flushes its engine counters into the process-wide obs
# registry and, forced scalar, flips the process-wide SIMD dispatch;
# none of it may race with the registry's or the dispatch's other
# users.
cmake -B build-tsan -G Ninja -DTW_SANITIZE=thread
cmake --build build-tsan --target test_harness test_base \
    test_integration test_serve test_obs test_shard test_core
TW_THREADS=4 ./build-tsan/tests/test_harness \
    --gtest_filter='ParallelTrials.*'
# Adaptive stopping batches trials through the same parallelFor and
# then reads the prefix back on the coordinating thread — prove the
# batch barrier and the per-index outcome writes race-free.
TW_THREADS=4 ./build-tsan/tests/test_harness \
    --gtest_filter='AdaptiveTrials.*:ExperimentAdaptive.*'
TW_THREADS=4 ./build-tsan/tests/test_base \
    --gtest_filter='ParallelFor.*:BoundedQueue*.*'
# The SIMD span scans and per-worker arenas are new shared state on
# the trial hot path: prove the dispatch pointers, the granule
# bitmaps under concurrent scans, and the thread-local arena
# lifecycle race-free with 4 workers.
TW_THREADS=4 ./build-tsan/tests/test_base \
    --gtest_filter='Simd*.*:Arena*.*'
./build-tsan/tests/test_integration --gtest_filter='FastPath.*'
# The cost-backend layer: stateful dram backends are per-trial
# instances flushed into the obs registry from destructors — prove
# the closed-form suite and the dram parallel-trial determinism
# race-free (death tests stay out; they fork under TSan).
./build-tsan/tests/test_core --gtest_filter='CostBackend.*'
TW_THREADS=4 ./build-tsan/tests/test_harness \
    --gtest_filter='ParallelTrials.BitIdenticalAcrossThreadCountsDramBackend'
# The experiment service is concurrency all the way down: MPMC
# queue, shared result cache, per-session writer locks, drain
# ordering. Run the whole serve suite under TSan.
TW_THREADS=4 ./build-tsan/tests/test_serve
# The sharded metric registry's whole point is lock-free hot-path
# writes with exact, monotone reads — prove it race-free.
./build-tsan/tests/test_obs
# The distribution layer adds an epoll loop thread, per-link health
# state, and reservation handoff between the router thread and the
# worker sessions — run the ring/poller suites (and the in-process
# 3-worker pool tests) under TSan too.
TW_THREADS=2 ./build-tsan/tests/test_shard

# End-to-end service smoke: daemon on a temp socket, served fig2
# rows diffed bit-for-bit against in-process computation, cache-hit
# resubmit, served run_experiment bit-identity, overload rejection,
# clean SIGTERM drain.
./scripts/serve_smoke.sh

# Sharded-pool smoke: 3 workers + router, pooled fig2 bit-identical
# to local, resubmit fully cached across shard-local caches, a
# SIGKILLed worker mid-request fails typed (never hangs), survivors
# serve the remapped sweep, clean router drain.
./scripts/shard_smoke.sh

# Observability smoke: fig2 span trace lints with every phase
# present, the BENCH report embeds engine counters, the prom
# exposition is well-formed, and canonical rows stay bit-identical
# with the spine on vs off.
./scripts/obs_smoke.sh

# Sampling smoke: interval-sampled fig2 estimates within 2% of the
# full run while replaying >=10x fewer refs; --ci-target turns
# table8 adaptive and the trial count actually drops.
./scripts/sample_smoke.sh

# Cost-backend smoke: default-pricing goldens stay byte-identical,
# the dram_dilation sweep reports live row-hit/row-conflict tallies
# and a dilation measurably off the flat table5 model, a malformed
# --cost-backend spec dies fast, and the ideal backend prices the
# same run cheaper.
./scripts/cost_smoke.sh

# Experiment-registry smoke: the driver must list the catalogue, and
# every migrated experiment's masked output must still match the
# checked-in pre-migration goldens (host-timing [json]/[report]
# lines stripped; --scale 2000 --threads 2 pinned inside).
./build/bench/bench_driver --list
./scripts/migration_diff.sh all

# Every registered experiment once at its default scale (the
# migration diff above runs them at 1/2000), or at TW_SCALE_DIV when
# the caller sets it, then the service and calibration benches
# (which read TW_SCALE_DIV themselves).
for e in $(./build/bench/bench_driver --list | awk '{ print $1 }'); do
    ./build/bench/bench_driver --run "$e" \
        ${TW_SCALE_DIV:+--scale "$TW_SCALE_DIV"}
done
./build/bench/bench_serve
./build/bench/calibrate

# Perf gate: perfbench's hits and misses workloads, 5 s each, must be
# correct and read an op_rel_p50 (op time over a reference kernel
# timed beside it) within 1.25x of the ratios recorded in the script.
# A ratio, not a rate, so it follows the code and not the neighbours
# on a shared host.
./scripts/perf_smoke.sh
