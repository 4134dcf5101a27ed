/**
 * @file
 * The served workload and the serve probe: a closed loop of two client
 * connections against a serve::Router over two in-process
 * serve::Servers with one engine worker each. The spec is
 * bench_serve's: espresso at scale divisor 4000, 2 KB I-cache,
 * user-only, with slowdown.
 *
 * served_cached: 32-seed sweeps over a fixed 64-seed pool that setup
 * has already computed, so every trial is a result-cache hit and the
 * engine is idle: wire parsing, canonical keys and fingerprints, the
 * ring, the cache, row streaming and the router merge do the work.
 *
 * The serve probe: 8-seed sweeps on seeds that never repeat, so every
 * trial is computed through admission, reservations, the job queue
 * and the worker pool (cache hits bypass the queue).
 */

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "base/logging.hh"
#include "base/random.hh"
#include "bench.hh"
#include "harness/specio.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/shard/router.hh"
#include "serve/shard/shard_map.hh"

namespace twbench
{

using namespace tw;

namespace
{

constexpr unsigned kClients = 2;
/** Requests in a traced window, so no per-thread trace buffer fills. */
constexpr std::uint64_t kTracedRequests = 400;
/** The timed phase runs in windows this long; between them the
 *  clients idle while the reference kernel runs kWindowRefs times. */
constexpr double kWindowSeconds = 0.25;
constexpr unsigned kWindowRefs = 3;
/** Served rows checked against a direct Runner run after the timed
 *  phase (all of the cached pool; an even spread of the probe's). */
constexpr std::size_t kVerifiedRows = 128;

RunSpec
servedSpec()
{
    RunSpec spec;
    spec.workload = makeWorkload("espresso", 4000);
    spec.sys.scope = SimScope::userOnly();
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(2048);
    return spec;
}

/** The two workers' socket paths: also their names on the ring, so
 *  they are the same in every run and every set-up. */
std::vector<std::string>
shardPaths(const std::string &dir)
{
    return {dir + "/w0.sock", dir + "/w1.sock"};
}

/**
 * Which seeds each request asks for, derived from --seed. Every
 * request holds as many seeds of each shard, so its two parts do
 * equal work: with an uneven split the latency would depend on the
 * seeds drawn, and on how the two clients' uneven parts happen to
 * queue behind each other.
 */
class Traffic
{
  public:
    Traffic(bool cached, std::uint64_t bench_seed, const RunSpec &spec,
            const std::vector<std::string> &shards)
        : cached_(cached),
          base_(mixSeed(cached ? 0xcac4ed : 0xc01d, bench_seed)),
          spec_(spec), ring_(shards), owned_(shards.size())
    {
        // served_cached replays two fixed windows.
        for (unsigned w = 0; cached_ && w < 2; ++w) {
            std::vector<std::uint64_t> window = balanced();
            pool_.insert(pool_.end(), window.begin(), window.end());
        }
    }

    bool cached() const { return cached_; }
    unsigned seedsPerRequest() const { return cached_ ? 32 : 8; }

    /** Request @p r of client @p client. */
    std::vector<std::uint64_t>
    seeds(unsigned client, std::uint64_t r)
    {
        if (cached_) {
            auto start = pool_.begin()
                         + ((client + r) % 2) * seedsPerRequest();
            return {start, start + seedsPerRequest()};
        }
        std::lock_guard<std::mutex> lock(mutex_);
        return balanced();
    }

  private:
    /** The next unused seeds, seedsPerRequest() / shards of each. */
    std::vector<std::uint64_t>
    balanced()
    {
        const std::size_t each = seedsPerRequest() / owned_.size();
        auto short_of = [&] {
            return std::any_of(owned_.begin(), owned_.end(),
                               [&](const auto &q) {
                                   return q.size() < each;
                               });
        };
        while (short_of()) {
            std::uint64_t seed = mixSeed(base_, next_++);
            owned_[ring_.ownerIndex(specFingerprint(spec_, seed, true))]
                .push_back(seed);
        }
        std::vector<std::uint64_t> out;
        for (auto &q : owned_) {
            out.insert(out.end(), q.begin(), q.begin() + each);
            q.erase(q.begin(), q.begin() + each);
        }
        return out;
    }

    bool cached_;
    std::uint64_t base_;
    const RunSpec &spec_;
    serve::ShardMap ring_;
    /** served_cached: two 32-seed windows. */
    std::vector<std::uint64_t> pool_;
    /** Guards the cold draw, which both clients make. */
    std::mutex mutex_;
    std::uint64_t next_ = 0;
    /** Drawn seeds not yet asked for, by owning shard. */
    std::vector<std::deque<std::uint64_t>> owned_;
};

/** Two Servers and the Router in front of them. */
class Stack
{
  public:
    explicit Stack(const std::string &dir)
    {
        serve::RouterConfig rcfg;
        rcfg.shards = shardPaths(dir);
        for (const std::string &path : rcfg.shards) {
            serve::ServerConfig cfg;
            cfg.socketPath = path;
            cfg.workers = 1;
            servers_.push_back(std::make_unique<serve::Server>(cfg));
            std::string err;
            if (!servers_.back()->start(&err))
                fatal("twbench: server %s: %s", path.c_str(), err.c_str());
        }
        rcfg.socketPath = dir + "/router.sock";
        router_ = std::make_unique<serve::Router>(rcfg);
        std::string err;
        if (!router_->start(&err))
            fatal("twbench: router: %s", err.c_str());
        // Links come up asynchronously; poll, never sleep a fixed time.
        Clock::time_point t0 = Clock::now();
        while (router_->upShardCount() < servers_.size()) {
            if (secondsSince(t0) > 30.0)
                fatal("twbench: shards never came up");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    ~Stack()
    {
        router_->stop();
        for (auto &s : servers_)
            s->stop();
    }

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    const std::string &socket() const { return router_->config().socketPath; }

  private:
    std::vector<std::unique_ptr<serve::Server>> servers_;
    std::unique_ptr<serve::Router> router_;
};

/** What one or more client loops saw. */
struct Log
{
    std::vector<double> ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t rows = 0;
    double refs = 0.0;
    double cycles = 0.0;
    double misses = 0.0;
    /** First digest served for each seed. */
    std::map<std::uint64_t, std::string> served;
    /** Seeds @p merge found served with two different digests: by two
     *  clients, or in two phases of a run. */
    std::uint64_t conflicts = 0;
    double wallSeconds = 0.0;

    void
    merge(const Log &o)
    {
        ms.insert(ms.end(), o.ms.begin(), o.ms.end());
        attempted += o.attempted;
        failed += o.failed;
        rows += o.rows;
        refs += o.refs;
        cycles += o.cycles;
        misses += o.misses;
        conflicts += o.conflicts;
        for (const auto &[seed, digest] : o.served) {
            auto [it, fresh] = served.emplace(seed, digest);
            if (!fresh && it->second != digest)
                ++conflicts;
        }
    }
};

/** One request and its check: every row present, for the seeds asked,
 *  none expired, all cached on served_cached, and each seed served
 *  the same outcome every time. */
void
request(serve::Client &client, const RunSpec &spec, bool all_cached,
        const std::vector<std::uint64_t> &seeds, Log &log)
{
    Clock::time_point t0 = Clock::now();
    serve::SweepResult res = client.submitSweep(spec, seeds);
    log.ms.push_back(secondsSince(t0) * 1e3);

    ++log.attempted;
    bool ok = res.ok && res.expired == 0 && res.rows.size() == seeds.size()
              && (!all_cached || res.cached == seeds.size());
    std::vector<std::uint64_t> got;
    for (const serve::SweepRow &row : res.rows) {
        got.push_back(row.seed);
        std::string digest = outcomeDigest(row.outcome);
        auto [it, fresh] = log.served.emplace(row.seed, digest);
        if (!fresh && it->second != digest)
            ok = false;
        ++log.rows;
        log.refs += simRefs(row.outcome);
        log.cycles += static_cast<double>(row.outcome.run.cycles);
        log.misses += row.outcome.rawMisses;
    }
    std::vector<std::uint64_t> want = seeds;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (!ok || got != want)
        ++log.failed;
}

/** Closed loop: kClients connections, each sending its next request
 *  when the last one is answered, for @p seconds or @p max_requests. */
Log
drive(const Stack &stack, const RunSpec &spec, Traffic &traffic,
      double seconds, std::uint64_t max_requests)
{
    std::vector<Log> logs(kClients);
    std::vector<std::thread> threads;
    std::atomic<std::uint64_t> issued{0};
    Clock::time_point start = Clock::now();
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            std::string err;
            if (!client.connectUnix(stack.socket(), &err))
                fatal("twbench: connect: %s", err.c_str());
            for (std::uint64_t r = 0;
                 secondsSince(start) < seconds
                 && issued.fetch_add(1) < max_requests;
                 ++r)
                request(client, spec, traffic.cached(),
                        traffic.seeds(c, r), logs[c]);
        });
    }
    for (auto &t : threads)
        t.join();
    Log all;
    for (const Log &l : logs)
        all.merge(l);
    all.wallSeconds = secondsSince(start);
    return all;
}

/** The timed phase: closed-loop windows for @p seconds, each window's
 *  median request time read against the reference kernel's, timed
 *  right after it while the stack is idle. Appends one ratio a window
 *  to @p rel. */
Log
driveWindows(const Stack &stack, const RunSpec &spec, Traffic &traffic,
             double seconds, std::vector<double> &rel)
{
    Log all;
    double busy = 0.0;
    Clock::time_point start = Clock::now();
    while (all.ms.empty() || secondsSince(start) < seconds) {
        Log window = drive(stack, spec, traffic, kWindowSeconds, UINT64_MAX);
        std::vector<double> ref;
        for (unsigned i = 0; i < kWindowRefs; ++i)
            ref.push_back(referenceKernelMs());
        rel.push_back(median(window.ms) / median(ref));
        busy += window.wallSeconds;
        all.merge(window);
    }
    all.wallSeconds = busy;
    return all;
}

/** Setup of one stack: service start, then the pass that fills the
 *  cache (served_cached) or warms the workers (the serve probe). */
std::unique_ptr<Stack>
setUp(const Options &opt, const RunSpec &spec, Traffic &traffic, Log &log)
{
    // Baselines are memoized process-wide; a setup that found them
    // warm would not be the setup a fresh service pays.
    Runner::clearBaselineCache();
    auto stack = std::make_unique<Stack>(opt.workdir);
    serve::Client client;
    std::string err;
    if (!client.connectUnix(stack->socket(), &err))
        fatal("twbench: connect: %s", err.c_str());
    // Clients 0 and 1 start on different windows of the cached pool.
    for (unsigned c = 0; c < (traffic.cached() ? 2 : 1); ++c)
        request(client, spec, false, traffic.seeds(c, 0), log);
    return stack;
}

/** Served rows against a direct Runner::runWithSlowdown of the same
 *  spec and seed, outside any timed phase. False on a mismatch, or
 *  when @p log saw a seed served two different outcomes: it keeps the
 *  first digest of each seed, so every later row must match that one
 *  for the direct run to check it. */
bool
verifyRows(const RunSpec &spec, const Log &log, Result &res)
{
    if (log.conflicts > 0)
        res.notes.push_back(csprintf("%llu seeds served two different "
                                     "outcomes",
                                     static_cast<unsigned long long>(
                                         log.conflicts)));
    Runner::clearBaselineCache();
    std::size_t stride =
        std::max<std::size_t>(1, log.served.size() / kVerifiedRows);
    std::size_t i = 0, checked = 0, bad = 0;
    for (const auto &[seed, digest] : log.served) {
        if (i++ % stride != 0)
            continue;
        ++checked;
        if (outcomeDigest(Runner::runWithSlowdown(spec, seed)) != digest)
            ++bad;
    }
    res.notes.push_back(csprintf("%zu of %zu served seeds checked "
                                 "against direct runs, %zu mismatched",
                                 checked, log.served.size(), bad));
    return bad == 0 && log.conflicts == 0;
}

/** The serve and router per-layer metrics of one traced window. */
void
serveLayerMetrics(const SpanTotals &spans, const Counters &delta,
                  std::uint64_t requests, unsigned seeds_per_request,
                  Result &res)
{
    const double reqs =
        static_cast<double>(std::max<std::uint64_t>(1, requests));
    static const std::pair<const char *, const char *> kSelf[] = {
        {"serve.parse_ms", "serve.parse"},
        {"serve.admit_ms", "serve.admit"},
        {"serve.run_ms", "serve.run"},
        {"serve.stream_ms", "serve.stream"},
        {"router.route_ms", "router.route"},
        {"router.commit_ms", "router.commit"},
    };
    for (const auto &[metric, span] : kSelf)
        res.add(metric, spans.self(span) / 1e3 / reqs, "ms");
    auto p50 = [&](const char *span) {
        auto it = spans.durUs.find(span);
        return it == spans.durUs.end() ? 0.0 : median(it->second);
    };
    res.add("serve.queue_wait_us_p50", p50("serve.queue"), "us");
    res.add("serve.run_us_p50", p50("serve.run"), "us");

    static const std::pair<const char *, const char *> kCounts[] = {
        {"serve.rows_cached", "serve.rows.cached"},
        {"serve.rows_computed", "serve.rows.computed"},
        {"serve.rows_streamed", "serve.rows.streamed"},
        {"serve.net_flushes", "serve.net.flushes"},
        {"router.rows_merged", "router.rows.merged"},
        {"router.rows_buffered", "router.rows.buffered"},
        {"router.fanout_commits", "router.fanout.commits"},
        {"serve.rejected_overloaded", "serve.rejected.overloaded"},
    };
    for (const auto &[metric, counter] : kCounts)
        res.add(metric, static_cast<double>(counterOf(delta, counter)),
                "count");
    const double flushes =
        static_cast<double>(counterOf(delta, "serve.net.flushes"));
    const double streamed =
        static_cast<double>(counterOf(delta, "serve.rows.streamed"));
    res.add("serve.rows_per_flush", flushes > 0 ? streamed / flushes : 0.0,
            "count");
    res.add("serve.requests", static_cast<double>(requests), "count");
    // The router fingerprints each seed and the owning server renders
    // its cacheKey once: harness.*_us times this many calls a request.
    res.add("serve.seeds_per_req", seeds_per_request, "count");
}

} // anonymous namespace

Result
runServedWorkload(const Options &opt)
{
    const RunSpec spec = servedSpec();
    Traffic traffic(true, opt.seed, spec, shardPaths(opt.workdir));
    const std::string tracePath = opt.workdir + "/serve.trace.json";
    Result res;
    Log setupLog, plain, traced;
    std::vector<double> setups, rel;
    std::unique_ptr<Stack> stack;
    SpanTotals spans;
    Counters delta;

    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        const bool last = rep + 1 == kSetupReps;
        stack.reset();
        Counters before;
        if (last && opt.trace) {
            // The traced window opens at the last setup so that it
            // holds the computing pass of served_cached as well.
            before = snapshotCounters();
            traceArm(tracePath);
        }
        Clock::time_point t0 = Clock::now();
        stack = setUp(opt, spec, traffic, setupLog);
        setups.push_back(secondsSince(t0));
        if (last && opt.trace) {
            traced = drive(*stack, spec, traffic, opt.seconds / 2,
                           kTracedRequests);
            spans = traceCollect(tracePath);
            delta = counterDelta(before, snapshotCounters());
        }
    }
    plain = driveWindows(*stack, spec, traffic,
                         opt.trace ? opt.seconds / 2 : opt.seconds, rel);
    stack.reset();

    res.attempted = plain.attempted + traced.attempted;
    res.failed = plain.failed + traced.failed;
    if (setupLog.failed > 0) {
        res.correct = false;
        res.notes.push_back("setup requests failed");
    }
    // The set-up rows were computed; the timed rows come from the
    // cache and must repeat them exactly.
    Log all = setupLog;
    all.merge(plain);
    all.merge(traced);
    if (!verifyRows(spec, all, res))
        res.failed = res.attempted; // any request may carry a bad row

    const double p10 = quantile(plain.ms, 0.1);
    const double rowsPerReq = traffic.seedsPerRequest();
    const double refsPerReq =
        plain.rows ? plain.refs / static_cast<double>(plain.rows) * rowsPerReq
                   : 0.0;
    res.notes.push_back(csprintf(
        "%zu requests of %.0f seeds, p10 %.3f p50 %.3f p99 %.3f ms, "
        "request/reference p50 %.3f over %zu windows, %.1f rows/s, "
        "setup median %.4f s (min %.4f, max %.4f)",
        plain.ms.size(), rowsPerReq, p10, median(plain.ms),
        quantile(plain.ms, 0.99), median(rel), rel.size(),
        static_cast<double>(plain.rows) / plain.wallSeconds,
        median(setups), quantile(setups, 0), quantile(setups, 1)));

    if (!opt.trace) {
        res.add("op_rel_p50", median(rel), "x");
        res.add("setup_s", median(setups), "s");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        return res;
    }

    const std::uint64_t requests = setupLog.attempted / kSetupReps
                                   + traced.attempted;
    const double rows = static_cast<double>(traced.rows);
    res.add("refs_per_s", refsPerReq / (p10 / 1e3), "1/s");
    res.add("op_p10_ms", p10, "ms");
    res.add("op_p50_ms", median(plain.ms), "ms");
    res.add("op_p99_ms", quantile(plain.ms, 0.99), "ms");
    res.add("op_samples", static_cast<double>(plain.ms.size()), "count");
    res.add("rows_per_s",
            static_cast<double>(plain.rows) / plain.wallSeconds, "1/s");
    res.add("obs.trace_overhead_pct",
            (quantile(traced.ms, 0.1) / p10 - 1.0) * 100.0, "%");
    res.droppedEvents += spans.dropped;
    engineCountMetrics(delta, static_cast<double>(requests), res);
    res.add("sim.cycles", traced.cycles / rows, "count");
    res.add("sim.misses", traced.misses / rows, "count");
    layerProbes(spec, mixSeed(0x9b0be, opt.seed), 0.0, 0.0,
                opt.workdir + "/probe.trace.json", res);
    serveLayerMetrics(spans, delta, requests, traffic.seedsPerRequest(),
                      res);
    return res;
}

void
serveProbe(const Options &opt, Result &res)
{
    const RunSpec spec = servedSpec();
    Traffic traffic(false, opt.seed, spec, shardPaths(opt.workdir));
    const std::string tracePath = opt.workdir + "/serve.trace.json";
    Log log;
    Counters before = snapshotCounters();
    traceArm(tracePath);
    {
        std::unique_ptr<Stack> stack = setUp(opt, spec, traffic, log);
        log.merge(drive(*stack, spec, traffic, 60.0, 32));
    }
    SpanTotals spans = traceCollect(tracePath);
    Counters delta = counterDelta(before, snapshotCounters());
    res.droppedEvents += spans.dropped;
    if (log.failed > 0 || !verifyRows(spec, log, res)) {
        res.correct = false;
        res.notes.push_back("serve probe requests failed");
    }
    serveLayerMetrics(spans, delta, log.attempted,
                      traffic.seedsPerRequest(), res);
}

} // namespace twbench
