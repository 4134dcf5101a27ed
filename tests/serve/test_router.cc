/**
 * @file
 * End-to-end router tests: three in-process twserved workers behind
 * one Router, all over real unix sockets. Pins the distribution
 * contract — pooled results bit-identical to single-node AND in seq
 * order, resubmission served entirely from shard-local caches,
 * all-or-nothing admission across shards, typed failure when a
 * shard dies mid-request, graceful drain. The whole file runs under
 * the TSan leg in check.sh.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/specio.hh"
#include "harness/trials.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/shard/router.hh"
#include "serve/wire.hh"

namespace tw
{
namespace
{

using serve::Client;
using serve::ExperimentResult;
using serve::Router;
using serve::RouterConfig;
using serve::Server;
using serve::ServerConfig;
using serve::SweepResult;

RunSpec
smallSpec(unsigned cache_bytes = 2048)
{
    RunSpec spec;
    spec.workload = makeWorkload("espresso", 4000);
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(cache_bytes);
    return spec;
}

std::string
freshPath(const char *tag)
{
    static std::atomic<unsigned> counter{0};
    return "/tmp/tw_router_test_" + std::to_string(::getpid()) + "_"
           + tag + std::to_string(counter.fetch_add(1)) + ".sock";
}

/** A pool of N in-process workers plus a router fronting them. */
struct Pool
{
    std::vector<std::unique_ptr<Server>> workers;
    std::vector<std::string> workerPaths;
    std::unique_ptr<Router> router;
    std::string routerPath;

    explicit Pool(unsigned n, std::size_t queue_capacity = 64,
                  unsigned health_interval_ms = 100)
    {
        for (unsigned i = 0; i < n; ++i) {
            ServerConfig cfg;
            cfg.socketPath = freshPath("w");
            cfg.workers = 2;
            cfg.queueCapacity = queue_capacity;
            cfg.cacheCapacity = 256;
            workerPaths.push_back(cfg.socketPath);
            workers.push_back(std::make_unique<Server>(cfg));
            std::string err;
            EXPECT_TRUE(workers.back()->start(&err)) << err;
        }
        RouterConfig rcfg;
        rcfg.socketPath = routerPath = freshPath("r");
        rcfg.shards = workerPaths;
        rcfg.healthIntervalMs = health_interval_ms;
        router = std::make_unique<Router>(rcfg);
        std::string err;
        EXPECT_TRUE(router->start(&err)) << err;
        // Worker links come up on the first tick; wait for all.
        for (int spins = 0;
             router->upShardCount() < n && spins < 200; ++spins)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        EXPECT_EQ(router->upShardCount(), n);
    }

    ~Pool()
    {
        if (router)
            router->stop();
        for (auto &w : workers)
            w->stop();
    }
};

TEST(Router, PooledSweepBitIdenticalAndSeqOrdered)
{
    Runner::clearBaselineCache();
    Pool pool(3);

    RunSpec spec = smallSpec();
    std::vector<std::uint64_t> seeds = derivedTrialSeeds(6, 1);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(pool.routerPath, &err)) << err;
    SweepResult res = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(res.ok) << res.errorCode << " " << res.errorMsg;
    ASSERT_EQ(res.rows.size(), seeds.size());
    EXPECT_EQ(res.computed, seeds.size());
    EXPECT_EQ(res.cached, 0u);

    // The streaming merge delivers rows in trial order — stronger
    // than the single node's completion order.
    for (std::size_t i = 0; i < res.rows.size(); ++i)
        EXPECT_EQ(res.rows[i].trial, i) << "merge out of order";

    // Bit-identical to direct computation, trial by trial.
    std::vector<RunOutcome> served = res.outcomes();
    for (std::size_t t = 0; t < seeds.size(); ++t) {
        RunOutcome direct = Runner::runWithSlowdown(spec, seeds[t]);
        EXPECT_EQ(formatRunOutcome(served[t]),
                  formatRunOutcome(direct))
            << "trial " << t;
    }
}

TEST(Router, ResubmitServedEntirelyFromShardCaches)
{
    Pool pool(3);
    RunSpec spec = smallSpec(4096);
    std::vector<std::uint64_t> seeds = {101, 202, 303, 404, 505};

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(pool.routerPath, &err)) << err;
    SweepResult first = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(first.ok) << first.errorMsg;
    EXPECT_EQ(first.computed, seeds.size());

    SweepResult second = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(second.ok) << second.errorMsg;
    EXPECT_EQ(second.cached, seeds.size());
    EXPECT_EQ(second.computed, 0u);
    for (const serve::SweepRow &r : second.rows)
        EXPECT_TRUE(r.cached);

    ASSERT_EQ(first.rows.size(), second.rows.size());
    for (std::size_t i = 0; i < first.rows.size(); ++i)
        EXPECT_EQ(formatRunOutcome(first.rows[i].outcome),
                  formatRunOutcome(second.rows[i].outcome));
}

TEST(Router, TrialSeedInSpecIsNormalizedOutOfPlacementAndKeys)
{
    // Runner overwrites sys.trialSeed per trial, so the router must
    // place, and the worker key, a trial as if it were 0. If either
    // side kept it, a resubmit with another trialSeed would land on
    // another shard or miss the cache.
    Pool pool(3);
    RunSpec spec = smallSpec(4096);
    spec.sys.trialSeed = 777;
    std::vector<std::uint64_t> seeds = {11, 22, 33, 44, 55, 66};

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(pool.routerPath, &err)) << err;
    SweepResult first = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(first.ok) << first.errorMsg;
    EXPECT_EQ(first.computed, seeds.size());

    for (std::uint64_t trial_seed : {std::uint64_t{0},
                                     std::uint64_t{987654321}}) {
        RunSpec again = spec;
        again.sys.trialSeed = trial_seed;
        SweepResult second = client.submitSweep(again, seeds, true);
        ASSERT_TRUE(second.ok) << second.errorMsg;
        EXPECT_EQ(second.cached, seeds.size()) << trial_seed;
        EXPECT_EQ(second.computed, 0u) << trial_seed;
        ASSERT_EQ(second.rows.size(), first.rows.size());
        for (std::size_t i = 0; i < first.rows.size(); ++i)
            EXPECT_EQ(formatRunOutcome(second.rows[i].outcome),
                      formatRunOutcome(first.rows[i].outcome));
    }
}

TEST(Router, ExperimentMatchesSingleNodeRowForRow)
{
    Pool pool(3);

    // A standalone single node computes the reference.
    ServerConfig scfg;
    scfg.socketPath = freshPath("single");
    scfg.workers = 2;
    scfg.queueCapacity = 64;
    scfg.cacheCapacity = 256;
    Server single(scfg);
    std::string err;
    ASSERT_TRUE(single.start(&err)) << err;

    Client pooled, direct;
    ASSERT_TRUE(pooled.connectUnix(pool.routerPath, &err)) << err;
    ASSERT_TRUE(direct.connectUnix(scfg.socketPath, &err)) << err;

    // table5 has no jobs: both answer `done` with zero rows.
    for (const char *name : {"smoke", "table5"}) {
        ExperimentResult a = pooled.runExperiment(name, 4000);
        ExperimentResult b = direct.runExperiment(name, 4000);
        ASSERT_TRUE(a.ok) << name << ": " << a.errorCode << " "
                          << a.errorMsg;
        ASSERT_TRUE(b.ok) << name << ": " << b.errorMsg;
        ASSERT_EQ(a.rows.size(), b.rows.size()) << name;
        for (std::size_t i = 0; i < a.rows.size(); ++i) {
            EXPECT_EQ(a.rows[i].seq, b.rows[i].seq);
            EXPECT_EQ(a.rows[i].unit, b.rows[i].unit);
            EXPECT_EQ(a.rows[i].seed, b.rows[i].seed);
            EXPECT_EQ(formatRunOutcome(a.rows[i].outcome),
                      formatRunOutcome(b.rows[i].outcome));
        }
    }
    single.stop();
}

TEST(Router, OverloadIsAllOrNothingAcrossShards)
{
    // Tiny per-worker queues: a sweep bigger than the POOL can
    // admit must reject atomically — no shard keeps its share.
    Pool pool(3, /*queue_capacity=*/2);
    RunSpec spec = smallSpec(8192);
    std::vector<std::uint64_t> seeds;
    for (unsigned t = 0; t < 24; ++t)
        seeds.push_back(900 + t);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(pool.routerPath, &err)) << err;
    SweepResult res = client.submitSweep(spec, seeds, true);
    ASSERT_FALSE(res.ok);
    EXPECT_EQ(res.errorCode, serve::kErrOverloaded);

    // Nothing ran anywhere: a per-trial resubmit computes every
    // row fresh (any shard that had executed its share would
    // answer from cache).
    std::uint64_t cachedTotal = 0;
    for (std::uint64_t s : seeds) {
        SweepResult one = client.submitSweep(spec, {s}, true);
        ASSERT_TRUE(one.ok) << one.errorMsg;
        cachedTotal += one.cached;
    }
    EXPECT_EQ(cachedTotal, 0u) << "a shard ran part of a rejected "
                                  "sweep";
}

TEST(Router, DeadShardFailsRequestWithTypedError)
{
    // Health interval long enough that the router still believes
    // the worker is up when the request arrives: this exercises the
    // in-flight failure path (link EOF mid-op), not the health-check
    // remap.
    Pool pool(3, 64, /*health_interval_ms=*/60000);

    // Kill one worker abruptly (stop() completes its drain, then
    // its socket goes away).
    pool.workers[1]->stop();

    RunSpec spec = smallSpec(16384);
    std::vector<std::uint64_t> seeds;
    for (unsigned t = 0; t < 12; ++t)
        seeds.push_back(7000 + t);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(pool.routerPath, &err)) << err;
    SweepResult res = client.submitSweep(spec, seeds, true);
    // Either every trial happened to land on the two survivors
    // (possible but unlikely with 12 seeds) or the request failed
    // with the typed shard error — never a hang, never a garbled
    // partial success.
    if (!res.ok) {
        EXPECT_TRUE(res.errorCode == serve::kErrShardFailed
                    || res.errorCode == serve::kErrShuttingDown)
            << res.errorCode;
    } else {
        EXPECT_EQ(res.rows.size(), seeds.size());
    }

    // The router cut the dead link; a retry remaps onto survivors
    // and completes.
    for (int spins = 0;
         pool.router->upShardCount() > 2 && spins < 100; ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    SweepResult retry = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(retry.ok) << retry.errorCode << " "
                          << retry.errorMsg;
    EXPECT_EQ(retry.rows.size(), seeds.size());
}

TEST(Router, StatsAggregatesShards)
{
    Pool pool(3);
    RunSpec spec = smallSpec();
    std::vector<std::uint64_t> seeds = {31, 32, 33, 34};

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(pool.routerPath, &err)) << err;
    SweepResult warm = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(warm.ok);
    SweepResult hit = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(hit.cached, seeds.size());

    Json stats;
    ASSERT_TRUE(client.stats(stats, &err)) << err;
    const Json *role = stats.find("role");
    ASSERT_NE(role, nullptr);
    EXPECT_EQ(role->asString(), "router");
    // Per-shard stats keyed by worker address.
    const Json *shards = stats.find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_TRUE(shards->isObject());
    EXPECT_EQ(shards->members().size(), 3u);

    // Cross-shard cache aggregation: the pool-wide adhoc hit count
    // covers the whole resubmitted sweep.
    const Json *hits = stats.findPath("experiments._adhoc.hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_GE(hits->asU64(), seeds.size());

    const Json *up = stats.findPath("router.shards_up");
    ASSERT_NE(up, nullptr);
    EXPECT_EQ(up->asU64(), 3u);
}

TEST(Router, GracefulStopDrainsAndRejectsNewWork)
{
    Pool pool(2);
    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(pool.routerPath, &err)) << err;
    ASSERT_TRUE(client.ping(&err)) << err;

    pool.router->requestStop();
    pool.router->join();

    // The front door is gone: a fresh connect fails cleanly.
    Client late;
    EXPECT_FALSE(late.connectUnix(pool.routerPath, &err));

    // Workers are untouched by the router's drain — they answer
    // directly.
    Client w;
    ASSERT_TRUE(w.connectUnix(pool.workerPaths[0], &err)) << err;
    EXPECT_TRUE(w.ping(&err)) << err;
}

TEST(Router, DrainDeliversAdmittedRowsToSlowReader)
{
    // A client that reads nothing until its sweep is computed leaves
    // most rows in the router's output buffer. A drain that starts
    // then must still deliver every row, and the `done`, before it
    // closes the connection.
    constexpr std::uint64_t kSeeds = 1000;
    // No health pings: a worker's session thread is busy planning
    // its ~500-job slice, which under a sanitizer can outlast two
    // short ping intervals and cut the link.
    Pool pool(2, /*queue_capacity=*/kSeeds,
              /*health_interval_ms=*/60000);
    RunSpec spec = smallSpec();
    spec.workload = makeWorkload("espresso", 40000); // cheap trials

    Client admin;
    std::string err;
    ASSERT_TRUE(admin.connectUnix(pool.routerPath, &err)) << err;
    auto routerStat = [&](const char *path) -> std::uint64_t {
        Json stats;
        EXPECT_TRUE(admin.stats(stats, &err)) << err;
        const Json *v = stats.findPath(path);
        return v ? v->asU64() : 0;
    };
    const std::uint64_t submitsBefore =
        routerStat("router.ops.submits");

    int fd = serve::connectUnixSocket(pool.routerPath, &err);
    ASSERT_GE(fd, 0) << err;
    Json req = Json::object();
    req.set("id", Json::number(std::uint64_t{1}));
    req.set("op", Json::str("submit"));
    req.set("spec", Json::str(formatRunSpec(spec)));
    Json seeds = Json::array();
    for (std::uint64_t s = 0; s < kSeeds; ++s)
        seeds.push(Json::number(s));
    req.set("seeds", std::move(seeds));
    req.set("slowdown", Json::boolean(false));
    ASSERT_TRUE(serve::sendJsonLine(fd, req));

    // Read nothing until the router has taken the submit and then
    // finished it: every row is merged and waits on our socket.
    auto waitFor = [](const std::function<bool()> &done) {
        for (int spins = 0; spins < 6000 && !done(); ++spins)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    waitFor([&] {
        return routerStat("router.ops.submits") > submitsBefore;
    });
    waitFor([&] { return routerStat("router.pending_requests") == 0; });
    ASSERT_EQ(routerStat("router.pending_requests"), 0u);
    pool.router->requestStop();

    serve::LineReader reader(fd);
    std::string line;
    std::uint64_t rows = 0;
    Json done;
    while (reader.readLine(line) == serve::LineReader::Status::Line) {
        Json frame;
        ASSERT_TRUE(Json::parse(line, frame, nullptr)) << line;
        if (frame.find("ev")->asString() != "row") {
            done = std::move(frame);
            break;
        }
        ++rows;
    }
    ::close(fd);
    pool.router->join();
    EXPECT_EQ(rows, kSeeds);
    ASSERT_TRUE(done.isObject()) << "connection closed before done";
    ASSERT_EQ(done.find("ev")->asString(), "done") << done.dump();
    EXPECT_EQ(done.find("rows")->asU64(), kSeeds);
}

TEST(Router, UnrunnableSpecGetsBadRequest)
{
    // A zero storeEvery (division by zero in the engine), a zero
    // quantum (a trial that never ends), and values that fatal() or
    // abort building the cache, a stream or the System all parse as
    // JSON but must be refused at the router's door, before any
    // worker sees them.
    Pool pool(1);
    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(pool.routerPath, &err)) << err;
    RunSpec zeroStore = smallSpec();
    zeroStore.workload.storeEvery = 0;
    RunSpec zeroQuantum = smallSpec();
    zeroQuantum.sys.quantumInstr = 0;
    RunSpec oddLine = smallSpec();
    oddLine.tw.cache.lineBytes = 12;
    RunSpec tinyText = smallSpec();
    tinyText.workload.kernelText.textBytes = 100;
    RunSpec zeroClock = smallSpec();
    zeroClock.sys.clockInterval = 0;
    RunSpec noBinaries = smallSpec();
    noBinaries.workload.binaries.clear();
    RunSpec noTasks = smallSpec();
    noTasks.workload.taskCount = 0;
    for (const RunSpec &spec : {zeroStore, zeroQuantum, oddLine, tinyText,
                                zeroClock, noBinaries, noTasks}) {
        SweepResult res = client.submitSweep(spec, {1}, false);
        EXPECT_FALSE(res.ok);
        EXPECT_EQ(res.errorCode, serve::kErrBadRequest)
            << res.errorMsg;
    }
    EXPECT_TRUE(client.ping(&err)) << err;
    EXPECT_EQ(pool.workers[0]->metrics().rowsComputed.value(), 0u);
}

/**
 * A peer that answers with numbers no u64 holds. It speaks just
 * enough of the worker-link protocol to sit in the ring: ping gets
 * pong, and every reserve a reservation of 1e309. It counts the
 * run_jobs commits it gets and answers them with an empty done, so a
 * router that does commit finishes the request instead of hanging.
 * A client's submit gets a done whose cached count is 1e309.
 */
struct OutOfRangeWorker
{
    std::string path = freshPath("f");
    int listenFd = -1;
    std::atomic<bool> stopping{false};
    std::atomic<unsigned> runJobs{0};
    std::thread thread;

    OutOfRangeWorker()
    {
        std::string err;
        listenFd = serve::listenUnixSocket(path, &err);
        EXPECT_GE(listenFd, 0) << err;
        thread = std::thread([this] { run(); });
    }

    /** Close the peer first (declare it after this): its EOF ends
     *  run()'s read. */
    ~OutOfRangeWorker()
    {
        stopping.store(true);
        thread.join();
        ::close(listenFd);
        ::unlink(path.c_str());
    }

    void
    run()
    {
        while (!stopping.load()) {
            pollfd pfd{listenFd, POLLIN, 0};
            if (::poll(&pfd, 1, 20) <= 0)
                continue;
            int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                continue;
            serve::LineReader reader(fd);
            std::string line;
            while (reader.readLine(line)
                   == serve::LineReader::Status::Line) {
                Json req;
                Json::parse(line, req);
                const Json *id = req.find("id");
                const Json *op = req.find("op");
                std::string name = op ? op->asString() : "";
                std::string reply = "{\"id\":"
                                    + (id ? id->lexeme() : "0")
                                    + ",\"ev\":";
                if (name == "ping") {
                    reply += "\"pong\"}";
                } else if (name == "reserve") {
                    reply += "\"reserved\",\"reservation\":1e309}";
                } else if (name == "submit") {
                    reply += "\"done\",\"rows\":0,\"cached\":1e309,"
                             "\"computed\":0,\"expired\":0}";
                } else if (name == "run_jobs") {
                    runJobs.fetch_add(1);
                    reply += "\"done\",\"rows\":0,\"cached\":0,"
                             "\"computed\":0,\"expired\":0}";
                } else {
                    reply += "\"ok\"}";
                }
                serve::sendLine(fd, reply);
            }
            ::close(fd);
        }
    }
};

TEST(Router, OutOfRangeWorkerNumberCutsTheLink)
{
    // A reservation token no u64 holds is a protocol violation: the
    // router cuts the link, as for an unparsable line, and fails the
    // request with shard_failed instead of committing run_jobs.
    OutOfRangeWorker worker;
    RouterConfig cfg;
    cfg.socketPath = freshPath("r");
    cfg.shards = {worker.path};
    cfg.healthIntervalMs = 60000; // no reconnect during the test
    Router router(cfg);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;
    for (int spins = 0; router.upShardCount() < 1 && spins < 200;
         ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(router.upShardCount(), 1u);

    Client client;
    ASSERT_TRUE(client.connectUnix(cfg.socketPath, &err)) << err;
    SweepResult res = client.submitSweep(smallSpec(), {1, 2}, false);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.errorCode, serve::kErrShardFailed) << res.errorMsg;
    EXPECT_EQ(worker.runJobs.load(), 0u);
    EXPECT_EQ(router.upShardCount(), 0u);

    // The router itself keeps serving.
    EXPECT_TRUE(client.ping(&err)) << err;
    router.stop();
}

TEST(Client, OutOfRangeDoneCountIsABadFrame)
{
    OutOfRangeWorker server;
    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(server.path, &err)) << err;
    SweepResult res = client.submitSweep(smallSpec(), {1}, false);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.errorMsg,
              "bad frame from server: cached is out of range");
}

TEST(Router, EmptyRingRejectsInsteadOfHanging)
{
    // A router whose every worker is down must answer — typed
    // error — not queue forever.
    Pool pool(1, 64, 60000);
    pool.workers[0]->stop();
    // Give the link EOF a moment to surface.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(pool.routerPath, &err)) << err;
    SweepResult res =
        client.submitSweep(smallSpec(), {1, 2}, true);
    ASSERT_FALSE(res.ok);
    EXPECT_TRUE(res.errorCode == serve::kErrShardFailed
                || res.errorCode == serve::kErrShuttingDown)
        << res.errorCode;
}

} // namespace
} // namespace tw
