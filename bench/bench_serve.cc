/**
 * @file
 * Throughput/latency of the twserved experiment service: sweep
 * requests per second and per-request p50/p99, cold (every trial
 * computed) vs cached (every trial a result-cache hit), at 1, 4 and
 * 16 concurrent clients.
 *
 * The interesting ratio is cached/cold: Section 5's "resident
 * simulator" pitch only holds if re-asking a warm server is orders
 * of magnitude cheaper than recomputing. The 16-client row also
 * exercises the admission path under real socket concurrency.
 *
 * `--report` writes BENCH_serve.json with rps and latency
 * percentiles per configuration, plus the row-write coalescing
 * ratio (rows carried per send() syscall on the row path).
 *
 * `--pooled` benches the sharded pool instead: 1, 2 and 3 workers
 * behind a Router, cold and cached phases through the front door.
 * With `--report` it writes BENCH_serve_shard.json; the headline is
 * cached req/s scaling with worker count (each shard answers from
 * its own cache slice, so hits parallelize across workers). The
 * report records host_cpus alongside the scaling ratios: on a
 * single-core host every pool size shares the same core and the
 * curve is necessarily flat.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "base/numparse.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "harness/experiment.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/shard/router.hh"

using namespace tw;

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: bench_serve [--pooled] [--threads <n>] "
                 "[--report]\n"
                 "\n"
                 "options:\n"
                 "  --pooled         bench 1, 2 and 3 workers behind "
                 "a router instead of one server\n"
                 "  --threads <n>    engine workers of the one server "
                 "(default: all cores)\n"
                 "  --report         write BENCH_serve.json "
                 "(BENCH_serve_shard.json with --pooled)\n"
                 "  --help           this text\n"
                 "\n"
                 "<n> is a positive integer; anything else exits 2, as "
                 "does an unknown option.\n"
                 "TW_SCALE_DIV sets the workload scale divisor "
                 "(default 4000).\n");
}

/** Print the bench header. */
void
banner(const char *artifact, const char *description,
       unsigned scale_div)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s — %s\n", artifact, description);
    std::printf("workloads scaled 1/%u; miss columns extrapolated "
                "to paper scale; %u trial thread(s)\n", scale_div,
                defaultThreads());
    std::printf("==============================================="
                "=================\n");
}

constexpr unsigned kSeedsPerRequest = 4;

struct PhaseStats
{
    double rps = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    std::size_t requests = 0;
};

double
percentileMs(std::vector<double> &sorted_us, double pct)
{
    if (sorted_us.empty())
        return 0.0;
    std::size_t idx = static_cast<std::size_t>(
        pct / 100.0 * static_cast<double>(sorted_us.size()));
    idx = std::min(idx, sorted_us.size() - 1);
    return sorted_us[idx] / 1000.0;
}

/**
 * Drive @p clients concurrent connections, each submitting
 * @p reqs_per_client sweeps of kSeedsPerRequest seeds. Seeds are
 * derived from @p seed_base, so calling twice with the same base
 * makes the second pass all cache hits.
 */
PhaseStats
runPhase(const std::string &path, const RunSpec &spec,
         unsigned clients, unsigned reqs_per_client,
         std::uint64_t seed_base, bool expect_cached,
         unsigned seeds_per_request = kSeedsPerRequest)
{
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    auto wall0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            std::string err;
            if (!client.connectUnix(path, &err))
                fatal("bench_serve: connect: %s", err.c_str());
            for (unsigned r = 0; r < reqs_per_client; ++r) {
                std::vector<std::uint64_t> seeds;
                for (unsigned i = 0; i < seeds_per_request; ++i)
                    seeds.push_back(seed_base + c * 100000
                                    + r * seeds_per_request + i);
                auto t0 = std::chrono::steady_clock::now();
                serve::SweepResult res =
                    client.submitSweep(spec, seeds);
                auto t1 = std::chrono::steady_clock::now();
                if (!res.ok)
                    fatal("bench_serve: submit rejected: %s (%s)",
                          res.errorCode.c_str(),
                          res.errorMsg.c_str());
                if (expect_cached && res.cached != seeds.size())
                    fatal("bench_serve: expected a fully cached "
                          "sweep, got %llu/%zu hits",
                          static_cast<unsigned long long>(
                              res.cached),
                          seeds.size());
                latencies[c].push_back(
                    std::chrono::duration<double, std::micro>(
                        t1 - t0)
                        .count());
            }
        });
    }
    for (auto &t : threads)
        t.join();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall0)
                      .count();

    std::vector<double> all;
    for (auto &v : latencies)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());

    PhaseStats s;
    s.requests = all.size();
    s.rps = wall > 0 ? static_cast<double>(all.size()) / wall : 0;
    s.p50Ms = percentileMs(all, 50.0);
    s.p99Ms = percentileMs(all, 99.0);
    return s;
}

/**
 * The sharded-pool variant: @p pool_size workers behind one Router,
 * phases driven through the front door. Returns {cold, cached}.
 */
std::pair<PhaseStats, PhaseStats>
runPooled(const RunSpec &spec, unsigned pool_size, unsigned clients,
          unsigned reqs_per_client, std::uint64_t seed_base,
          unsigned seeds_per_request)
{
    std::vector<std::unique_ptr<serve::Server>> workers;
    serve::RouterConfig rcfg;
    for (unsigned i = 0; i < pool_size; ++i) {
        serve::ServerConfig cfg;
        cfg.socketPath = csprintf("/tmp/twserved-bench-%d-w%u.sock",
                                  getpid(), i);
        // Fixed per-worker compute: a pool of N models N hosts, so
        // total simulation capacity grows with pool size. Dividing
        // defaultThreads() across the pool would hold capacity
        // constant and hide the scaling we're measuring.
        cfg.workers = 2;
        cfg.queueCapacity = 4096;
        cfg.cacheCapacity = 8192;
        rcfg.shards.push_back(cfg.socketPath);
        workers.push_back(std::make_unique<serve::Server>(cfg));
        std::string err;
        if (!workers.back()->start(&err))
            fatal("bench_serve: worker %u: %s", i, err.c_str());
    }
    rcfg.socketPath =
        csprintf("/tmp/twserved-bench-%d-router.sock", getpid());
    rcfg.healthIntervalMs = 500;
    serve::Router router(rcfg);
    std::string err;
    if (!router.start(&err))
        fatal("bench_serve: router: %s", err.c_str());
    for (int spins = 0;
         router.upShardCount() < pool_size && spins < 500; ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (router.upShardCount() < pool_size)
        fatal("bench_serve: pool never came up");

    PhaseStats cold =
        runPhase(rcfg.socketPath, spec, clients, reqs_per_client,
                 seed_base, false, seeds_per_request);
    PhaseStats cached =
        runPhase(rcfg.socketPath, spec, clients, reqs_per_client,
                 seed_base, true, seeds_per_request);
    router.stop();
    for (auto &w : workers)
        w->stop();
    return {cold, cached};
}

} // namespace

int
main(int argc, char **argv)
{
    bool report = false;
    bool pooled = false;
    const NumericFlags flags("bench_serve", usage);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--report") == 0) {
            report = true;
        } else if (std::strcmp(arg, "--pooled") == 0) {
            pooled = true;
        } else if (std::strcmp(arg, "--threads") == 0
                   || std::strncmp(arg, "--threads=", 10) == 0) {
            if (arg[9] != '=' && i + 1 >= argc)
                flags.refuse("--threads requires a value");
            const char *v = arg[9] == '=' ? arg + 10 : argv[++i];
            setDefaultThreads(flags.positive("--threads", v));
        } else if (std::strcmp(arg, "--help") == 0
                   || std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else {
            flags.refuse(std::string("unknown option ") + arg);
        }
    }
    unsigned scale = parseScaleDiv(std::getenv("TW_SCALE_DIV"), 4000);

    // The scalar metrics of BENCH_<name>.json, written with --report
    // in the schema bench_driver --report writes.
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::pair<std::string, double>> metrics;
    auto writeReport = [&](const char *name) {
        if (!report)
            return;
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        writeBenchReport(name, name, "bench_serve", wall, metrics);
    };

    if (pooled) {
        banner("twserved pool",
               "sharded service: cold vs cached sweeps through the "
               "router at 1/2/3 workers",
               scale);
        RunSpec spec;
        spec.workload = makeWorkload("espresso", scale);
        spec.sys.scope = SimScope::userOnly();
        spec.sim = SimKind::Tapeworm;
        spec.tw.cache = CacheConfig::icache(2048);

        // Wide sweeps (32 seeds/request) keep per-request work on
        // the owner shards — spec parsing, cache probes, row dumps —
        // large relative to the router's per-row retag, so the pool,
        // not the single front-door thread, sets the ceiling.
        const unsigned clients = 8, reqsPerClient = 4;
        const unsigned seedsPerRequest = 32;
        TextTable t({"workers", "phase", "requests", "req/s",
                     "p50 ms", "p99 ms"});
        std::uint64_t seedBase = 40'000'000;
        double cached1 = 0;
        const unsigned hostCpus =
            std::max(1u, std::thread::hardware_concurrency());
        metrics.emplace_back("host_cpus", hostCpus);
        for (unsigned pool : {1u, 2u, 3u}) {
            seedBase += 10'000'000;
            auto [cold, cached] =
                runPooled(spec, pool, clients, reqsPerClient,
                          seedBase, seedsPerRequest);
            for (const auto &[phase, s] :
                 {std::pair<const char *, PhaseStats &>{"cold",
                                                        cold},
                  {"cached", cached}}) {
                t.addRow({csprintf("%u", pool), phase,
                          csprintf("%zu", s.requests),
                          fmtF(s.rps, 1), fmtF(s.p50Ms, 3),
                          fmtF(s.p99Ms, 3)});
                std::string prefix = csprintf("%s_w%u_", phase, pool);
                metrics.emplace_back(prefix + "rps", s.rps);
                metrics.emplace_back(prefix + "p50_ms", s.p50Ms);
                metrics.emplace_back(prefix + "p99_ms", s.p99Ms);
            }
            if (pool == 1)
                cached1 = cached.rps;
            else if (cached1 > 0)
                metrics.emplace_back(
                    csprintf("cached_scaling_w%u", pool),
                    cached.rps / cached1);
        }
        std::printf("%s\n", t.render().c_str());
        std::printf(
            "Shape targets: cached req/s should grow with worker "
            "count — every shard owns its slice of the key space, "
            "so hits never leave the owning worker's cache. That "
            "needs cores for the pool to spread over: this host "
            "has %u CPU(s), so expect scaling ~%s.\n",
            hostCpus, hostCpus >= 6 ? ">1" : "flat (CPU-bound)");
        writeReport("serve_shard");
        return 0;
    }
    banner("twserved", "experiment-service throughput: cold vs "
                       "cached sweeps, 1/4/16 clients", scale);

    RunSpec spec;
    spec.workload = makeWorkload("espresso", scale);
    spec.sys.scope = SimScope::userOnly();
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(2048);

    serve::ServerConfig cfg;
    cfg.socketPath =
        csprintf("/tmp/twserved-bench-%d.sock", getpid());
    cfg.workers = defaultThreads();
    cfg.queueCapacity = 4096;
    cfg.cacheCapacity = 8192;
    serve::Server server(cfg);
    std::string err;
    if (!server.start(&err))
        fatal("bench_serve: %s", err.c_str());

    const unsigned reqsPerClient = 8;
    TextTable t({"clients", "phase", "requests", "req/s", "p50 ms",
                 "p99 ms"});
    std::uint64_t seedBase = 10'000'000;
    for (unsigned clients : {1u, 4u, 16u}) {
        // Distinct seed space per client count keeps the cold pass
        // genuinely cold; the second pass replays it verbatim.
        seedBase += 10'000'000;
        PhaseStats cold = runPhase(cfg.socketPath, spec, clients,
                                   reqsPerClient, seedBase, false);
        PhaseStats cached = runPhase(cfg.socketPath, spec, clients,
                                     reqsPerClient, seedBase, true);
        for (const auto &[phase, s] :
             {std::pair<const char *, PhaseStats &>{"cold", cold},
              {"cached", cached}}) {
            t.addRow({csprintf("%u", clients), phase,
                      csprintf("%zu", s.requests), fmtF(s.rps, 1),
                      fmtF(s.p50Ms, 3), fmtF(s.p99Ms, 3)});
            std::string prefix = csprintf("%s_c%u_", phase, clients);
            metrics.emplace_back(prefix + "rps", s.rps);
            metrics.emplace_back(prefix + "p50_ms", s.p50Ms);
            metrics.emplace_back(prefix + "p99_ms", s.p99Ms);
        }
        if (clients == 1 && cold.p50Ms > 0)
            std::printf("[serve] cached/cold p50 speedup at 1 "
                        "client: %.1fx\n",
                        cold.p50Ms
                            / (cached.p50Ms > 0 ? cached.p50Ms
                                                : cold.p50Ms));
    }
    std::printf("%s\n", t.render().c_str());

    // Row-write coalescing: without batching every row is its own
    // send(); with it, cached sweeps ride one flush per batch. The
    // rows-per-flush ratio is the syscall reduction on the row path.
    std::uint64_t flushes = server.metrics().netFlushes.value();
    std::uint64_t streamed = server.metrics().rowsStreamed.value();
    std::uint64_t batched = server.metrics().netBatchedRows.value();
    double rowsPerFlush =
        flushes ? static_cast<double>(streamed)
                      / static_cast<double>(flushes)
                : 0.0;
    std::printf("[serve] row-path writes: %llu rows in %llu "
                "flushes (%.2f rows/syscall; %llu rode a shared "
                "batch)\n",
                static_cast<unsigned long long>(streamed),
                static_cast<unsigned long long>(flushes),
                rowsPerFlush,
                static_cast<unsigned long long>(batched));
    metrics.emplace_back("net_flushes", static_cast<double>(flushes));
    metrics.emplace_back("net_rows_streamed",
                         static_cast<double>(streamed));
    metrics.emplace_back("net_batched_rows", static_cast<double>(batched));
    metrics.emplace_back("rows_per_flush", rowsPerFlush);

    std::printf("Shape targets: cached sweeps should be far cheaper "
                "than cold ones (no Runner work, just cache lookups "
                "and wire I/O), and req/s should grow with client "
                "count until the worker pool saturates.\n");

    server.stop();
    writeReport("serve");
    return 0;
}
