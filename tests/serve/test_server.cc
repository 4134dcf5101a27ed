/**
 * @file
 * End-to-end tests of twserved's engine over a real unix-domain
 * socket: served results bit-identical to direct computation,
 * resubmission served from cache, deterministic full-queue
 * rejection, deadline expiry, graceful drain, and concurrent
 * clients (the whole file is also built under TSan by check.sh).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/specio.hh"
#include "harness/trials.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace tw
{
namespace
{

using serve::Client;
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

/** @p j with the member at dotted @p path replaced by @p value. */
Json
withField(Json j, const std::string &path, Json value)
{
    std::size_t dot = path.find('.');
    if (dot == std::string::npos) {
        j.set(path, std::move(value));
        return j;
    }
    std::string head = path.substr(0, dot);
    j.set(head, withField(*j.find(head), path.substr(dot + 1),
                          std::move(value)));
    return j;
}

/** Each test gets its own socket path (tests may run in parallel
 *  processes on a shared /tmp). */
std::string
freshSocketPath(const char *tag)
{
    static std::atomic<unsigned> counter{0};
    return "/tmp/tw_serve_test_" + std::to_string(::getpid()) + "_"
           + tag + std::to_string(counter.fetch_add(1)) + ".sock";
}

ServerConfig
baseConfig(const std::string &path)
{
    ServerConfig cfg;
    cfg.socketPath = path;
    cfg.workers = 2;
    cfg.queueCapacity = 16;
    cfg.cacheCapacity = 64;
    return cfg;
}

TEST(Server, ServedRowsBitIdenticalToDirect)
{
    Runner::clearBaselineCache();
    std::string path = freshSocketPath("direct");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    RunSpec spec = smallSpec();
    std::vector<std::uint64_t> seeds = {11, 22, 33};

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    SweepResult res = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(res.ok) << res.errorMsg;
    ASSERT_EQ(res.rows.size(), seeds.size());
    EXPECT_EQ(res.computed, seeds.size());
    EXPECT_EQ(res.cached, 0u);

    std::vector<RunOutcome> served = res.outcomes();
    for (std::size_t t = 0; t < seeds.size(); ++t) {
        RunOutcome direct = Runner::runWithSlowdown(spec, seeds[t]);
        EXPECT_EQ(formatRunOutcome(served[t]),
                  formatRunOutcome(direct))
            << "trial " << t;
        EXPECT_GT(served[t].hostSeconds, 0.0); // wire carries it
    }
    server.stop();
}

TEST(Server, ResubmitIsServedFromCacheBitIdentically)
{
    std::string path = freshSocketPath("cache");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    RunSpec spec = smallSpec();
    std::vector<std::uint64_t> seeds = {5, 6};

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    SweepResult first = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(first.ok) << first.errorMsg;
    EXPECT_EQ(first.computed, 2u);

    SweepResult second = client.submitSweep(spec, seeds, true);
    ASSERT_TRUE(second.ok) << second.errorMsg;
    EXPECT_EQ(second.cached, 2u);
    EXPECT_EQ(second.computed, 0u); // no recompute
    for (const serve::SweepRow &r : second.rows)
        EXPECT_TRUE(r.cached);

    std::vector<RunOutcome> a = first.outcomes();
    std::vector<RunOutcome> b = second.outcomes();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t)
        EXPECT_EQ(formatRunOutcome(a[t]), formatRunOutcome(b[t]));

    // The hit counter moved by exactly the resubmitted rows.
    Json stats;
    ASSERT_TRUE(client.stats(stats, &err)) << err;
    EXPECT_EQ(stats.findPath("cache.hits")->asU64(), 2u);
    EXPECT_EQ(stats.findPath("rows.computed")->asU64(), 2u);
    EXPECT_EQ(stats.findPath("rows.cached")->asU64(), 2u);
    server.stop();
}

TEST(Server, MixedSweepComputesOnlyTheMisses)
{
    std::string path = freshSocketPath("mixed");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    RunSpec spec = smallSpec();
    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    SweepResult warm = client.submitSweep(spec, {1, 2}, true);
    ASSERT_TRUE(warm.ok) << warm.errorMsg;

    // {1,2} cached; {3} fresh.
    SweepResult mixed = client.submitSweep(spec, {1, 2, 3}, true);
    ASSERT_TRUE(mixed.ok) << mixed.errorMsg;
    EXPECT_EQ(mixed.cached, 2u);
    EXPECT_EQ(mixed.computed, 1u);
    EXPECT_EQ(mixed.rows.size(), 3u);
    server.stop();
}

TEST(Server, FullQueueRejectsWholeSweepAsOverloaded)
{
    std::string path = freshSocketPath("overload");
    ServerConfig cfg = baseConfig(path);
    cfg.queueCapacity = 2;
    Server server(cfg);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Deterministic: workers held BEFORE the queue pop, so admitted
    // jobs stay queued.
    server.pauseWorkers();

    Client clientA;
    ASSERT_TRUE(clientA.connectUnix(path, &err)) << err;
    RunSpec spec = smallSpec();

    std::thread submitter([&] {
        // Fills the whole queue; blocks until workers resume.
        SweepResult res = clientA.submitSweep(spec, {1, 2}, true);
        EXPECT_TRUE(res.ok) << res.errorMsg;
        EXPECT_EQ(res.rows.size(), 2u);
    });
    // Wait until both jobs are admitted.
    while (server.metrics().jobsInFlight.value() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // A second client's sweep cannot fit: rejected whole, nothing
    // admitted, and the queue is untouched.
    Client clientB;
    ASSERT_TRUE(clientB.connectUnix(path, &err)) << err;
    SweepResult rejected =
        clientB.submitSweep(smallSpec(4096), {9}, true);
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.errorCode, serve::kErrOverloaded);
    EXPECT_TRUE(rejected.rows.empty());
    EXPECT_EQ(server.metrics().rejectedOverloaded.value(), 1u);

    // An oversized sweep is rejected even against an empty queue.
    server.resumeWorkers();
    submitter.join();
    SweepResult tooBig =
        clientB.submitSweep(smallSpec(4096), {1, 2, 3}, true);
    EXPECT_FALSE(tooBig.ok);
    EXPECT_EQ(tooBig.errorCode, serve::kErrOverloaded);

    // The overloaded client can simply retry once there is room.
    SweepResult retry = clientB.submitSweep(smallSpec(4096), {9},
                                            true);
    EXPECT_TRUE(retry.ok) << retry.errorMsg;
    server.stop();
}

TEST(Server, DrainCompletesAdmittedWorkThenRejectsNew)
{
    std::string path = freshSocketPath("drain");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    server.pauseWorkers();

    Client clientA;
    ASSERT_TRUE(clientA.connectUnix(path, &err)) << err;
    RunSpec spec = smallSpec();
    SweepResult admitted;
    std::thread submitter([&] {
        admitted = clientA.submitSweep(spec, {41, 42}, true);
    });
    while (server.metrics().jobsInFlight.value() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Connect before the stop: the accept loop exits once a stop
    // is requested, but established sessions keep being served.
    // The ping proves the session thread exists (connect alone only
    // means the listen backlog took us).
    Client clientB;
    ASSERT_TRUE(clientB.connectUnix(path, &err)) << err;
    ASSERT_TRUE(clientB.ping(&err)) << err;

    // Stop while the sweep is queued: it was admitted, so it MUST
    // still complete...
    server.requestStop();

    // ...while a post-stop submit is turned away.
    SweepResult late = clientB.submitSweep(spec, {43}, true);
    EXPECT_FALSE(late.ok);
    EXPECT_EQ(late.errorCode, serve::kErrShuttingDown);

    server.resumeWorkers();
    submitter.join();
    EXPECT_TRUE(admitted.ok) << admitted.errorMsg;
    EXPECT_EQ(admitted.rows.size(), 2u);

    server.join();
    // Socket is gone after a completed drain.
    Client clientC;
    EXPECT_FALSE(clientC.connectUnix(path, &err));
}

TEST(Server, ShutdownOpDrains)
{
    std::string path = freshSocketPath("shutop");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    ASSERT_TRUE(client.ping(&err)) << err;
    ASSERT_TRUE(client.shutdownServer(&err)) << err;
    server.join();
    EXPECT_TRUE(server.stopping());
}

TEST(Server, DeadlineExpiresQueuedJobs)
{
    std::string path = freshSocketPath("deadline");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    server.pauseWorkers();

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    RunSpec spec = smallSpec();
    SweepResult res;
    std::thread submitter([&] {
        res = client.submitSweep(spec, {71, 72}, true, 1);
    });
    while (server.metrics().jobsInFlight.value() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Let the 1ms deadline lapse while the jobs sit in the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.resumeWorkers();
    submitter.join();

    ASSERT_TRUE(res.ok) << res.errorMsg;
    EXPECT_EQ(res.expired, 2u);
    EXPECT_EQ(res.computed, 0u);
    for (const serve::SweepRow &r : res.rows)
        EXPECT_TRUE(r.expired);
    // Expired rows were never cached: a fresh submit recomputes.
    SweepResult fresh = client.submitSweep(spec, {71}, true);
    ASSERT_TRUE(fresh.ok);
    EXPECT_EQ(fresh.computed, 1u);
    server.stop();
}

TEST(Server, MalformedRequestGetsBadRequest)
{
    std::string path = freshSocketPath("bad");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = serve::connectUnixSocket(path, &err);
    ASSERT_GE(fd, 0) << err;
    serve::LineReader reader(fd);
    std::string line;

    // @p msg, when given, is the message the error must carry.
    auto expectError = [&](const std::string &req,
                           const char *msg = nullptr) {
        ASSERT_TRUE(serve::sendLine(fd, req));
        ASSERT_EQ(reader.readLine(line),
                  serve::LineReader::Status::Line);
        Json resp;
        ASSERT_TRUE(Json::parse(line, resp, nullptr)) << line;
        EXPECT_EQ(resp.find("ev")->asString(), "error");
        EXPECT_EQ(resp.find("code")->asString(),
                  serve::kErrBadRequest);
        if (msg) {
            EXPECT_EQ(resp.find("msg")->asString(), msg) << req;
        }
    };
    expectError("this is not json");
    expectError("{\"id\":1}");
    expectError("{\"id\":2,\"op\":\"warp\"}");
    expectError("{\"id\":3,\"op\":\"submit\"}");
    expectError("{\"id\":4,\"op\":\"submit\",\"spec\":\"{}\","
                "\"seeds\":[1]}");
    expectError("{\"id\":5,\"op\":\"submit\",\"spec\":7,"
                "\"seeds\":[1]}");
    // Well-formed specs the engine cannot run: a zero storeEvery
    // divides by zero, a zero quantum never ends the trial, and the
    // rest fatal() or abort building the cache, a stream or the
    // System. Any would take the whole daemon (or one worker) with
    // it.
    auto submitSpec = [](const Json &spec) {
        Json req = Json::object();
        req.set("id", Json::number(6u));
        req.set("op", Json::str("submit"));
        req.set("spec", Json::str(spec.dump()));
        Json seeds = Json::array();
        seeds.push(Json::number(1u));
        req.set("seeds", std::move(seeds));
        return req.dump();
    };
    auto changed = [&](const char *path, Json value,
                       unsigned cache_bytes = 2048) {
        return submitSpec(withField(specToJson(smallSpec(cache_bytes)),
                                    path, std::move(value)));
    };
    expectError(changed("workload.storeEvery", Json::number(0u)));
    expectError(changed("sys.quantumInstr", Json::number(0u)));
    expectError(changed("tw.cache.lineBytes", Json::number(12u)));
    // Lines below the trap granule or above a page abort building
    // the Tapeworm.
    expectError(changed("tw.cache.lineBytes", Json::number(8u)));
    expectError(changed("tw.cache.lineBytes", Json::number(4u)));
    expectError(
        changed("tw.cache.lineBytes", Json::number(8192u), 65536));
    expectError(
        changed("workload.kernelText.textBytes", Json::number(100u)));
    // An excursion of no words is an empty run.
    expectError(changed("workload.kernelText.excursionWords",
                        Json::number(0u)));
    expectError(changed("sys.clockInterval", Json::number(0u)));
    // Memory that is not whole trap granules, or that the 64 reserved
    // frames use up, aborts building the System.
    expectError(changed("sys.physMemBytes",
                        Json::number(std::uint64_t{16777224})));
    expectError(changed("sys.physMemBytes",
                        Json::number(std::uint64_t{64 * 4096})));
    expectError(changed("workload.binaries", Json::array()));
    // A data segment that does not follow its text aborts building
    // the task.
    RunSpec overlap = smallSpec();
    overlap.workload.binaryData[0].base = 0;
    expectError(submitSpec(specToJson(overlap)));
    overlap = smallSpec();
    overlap.workload.binaries[0].base = std::uint64_t{1} << 32;
    expectError(submitSpec(specToJson(overlap)));
    overlap = smallSpec();
    overlap.workload.binaries[0].textBytes = std::uint64_t{1} << 32;
    expectError(submitSpec(specToJson(overlap)));
    // A TLB page finer than a host page, or a filter bitmap short of
    // the machine's frames, aborts the TapewormTlb.
    RunSpec tlb = smallSpec();
    tlb.sim = SimKind::TapewormTlbSim;
    expectError(submitSpec(
        withField(specToJson(tlb), "tlb.tlb.lineBytes", Json::number(1u))));
    expectError(submitSpec(
        withField(specToJson(tlb), "tlb.filterFrames", Json::number(3u))));
    expectError(changed("workload.taskCount", Json::number(0u)));
    // An integer outside its field's type must not narrow into a
    // runnable value (2^32 + 1 tasks would read as one).
    expectError(changed("workload.taskCount",
                        Json::number(std::uint64_t{4294967297})));
    // A sampling fraction of 0 sets aborts building the Tapeworm.
    expectError(changed("tw.sampleNum", Json::number(0u)));
    // A double that overflows reads as inf, whose canonical text no
    // worker would take back.
    expectError(changed("workload.fracKernel", Json::numberLexeme("1e309")));
    expectError(
        changed("tw.cost.cyclesPerInstr", Json::numberLexeme("1e309")));
    expectError(changed("workload.kernelText.excursionProb",
                        Json::numberLexeme("-1e309")));
    expectError(changed("workload.bsdProb", Json::numberLexeme("1e999")));
    // A dram geometry the backend asserts on, and values that would
    // wrap into one.
    RunSpec dram = smallSpec();
    dram.tw.costBackend.kind = CostBackendKind::Dram;
    auto dramTw = [&](const char *key, Json value) {
        return withField(*specToJson(dram).find("tw"),
                         std::string("costBackend.dram.") + key,
                         std::move(value));
    };
    for (const char *key : {"channels", "ranks", "banks", "rowBytes"})
        expectError(changed("tw", dramTw(key, Json::number(0u))));
    expectError(changed(
        "tw", dramTw("banks", Json::number(std::uint64_t{4294967297}))));
    expectError(changed("tw", dramTw("tRCD", Json::numberLexeme("-1"))));
    // Numbers that no u64 holds, in the client ops and in the
    // worker-link ops: each was an undefined cast, and 2^64 clamped
    // to 2^64 - 1, a different trial.
    const std::string spec = Json::str(formatRunSpec(smallSpec())).dump();
    auto submit = [&](const std::string &fields) {
        return "{\"id\":8,\"op\":\"submit\",\"spec\":" + spec + ","
               + fields + "}";
    };
    auto runJobs = [&](const std::string &fields, const std::string &job) {
        return "{\"id\":9,\"op\":\"run_jobs\"," + fields
               + "\"jobs\":[{\"spec\":" + spec + "," + job + "}]}";
    };
    expectError(submit("\"seeds\":[1e309]"), "seeds is out of range");
    expectError(submit("\"seeds\":[1e20]"), "seeds is out of range");
    expectError(submit("\"seeds\":[18446744073709551616]"),
                "seeds is out of range");
    expectError(submit("\"seeds\":[1],\"deadline_ms\":1e309"),
                "deadline_ms is out of range");
    expectError("{\"id\":10,\"op\":\"reserve\",\"jobs\":1e309}",
                "jobs is out of range");
    expectError("{\"id\":11,\"op\":\"release\",\"reservation\":1e309}",
                "reservation is out of range");
    expectError(runJobs("\"reservation\":1e309,", "\"seed\":1"),
                "reservation is out of range");
    expectError(runJobs("\"deadline_ms\":1e309,", "\"seed\":1"),
                "deadline_ms is out of range");
    expectError(runJobs("", "\"seed\":1e309"), "job seed is out of range");
    expectError(runJobs("", "\"seed\":18446744073709551616"),
                "job seed is out of range");
    expectError(runJobs("", "\"seed\":1,\"trial\":1e309"),
                "job trial is out of range");
    expectError(runJobs("", "\"seed\":1,\"seq\":1e309"),
                "job seq is out of range");
    // And the daemon is still there to answer.
    ASSERT_TRUE(serve::sendLine(fd, "{\"id\":7,\"op\":\"ping\"}"));
    ASSERT_EQ(reader.readLine(line), serve::LineReader::Status::Line);
    Json pong;
    ASSERT_TRUE(Json::parse(line, pong, nullptr)) << line;
    EXPECT_EQ(pong.find("ev")->asString(), "pong");
    ::close(fd);
    server.stop();
    EXPECT_EQ(server.metrics().badRequests.value(), 48u);
    EXPECT_EQ(server.metrics().rowsComputed.value(), 0u);
}

TEST(Server, NegativeSeedOrDeadlineIsRejected)
{
    std::string path = freshSocketPath("negseed");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = serve::connectUnixSocket(path, &err);
    ASSERT_GE(fd, 0) << err;
    serve::LineReader reader(fd);
    std::string line;

    // A valid spec so validation reaches the seed/deadline fields:
    // -1 must come back bad_request, not wrap to UINT64_MAX and
    // compute a bogus trial.
    auto expectBad = [&](Json req) {
        ASSERT_TRUE(serve::sendJsonLine(fd, req));
        ASSERT_EQ(reader.readLine(line),
                  serve::LineReader::Status::Line);
        Json resp;
        ASSERT_TRUE(Json::parse(line, resp, nullptr)) << line;
        EXPECT_EQ(resp.find("ev")->asString(), "error");
        EXPECT_EQ(resp.find("code")->asString(),
                  serve::kErrBadRequest);
    };
    Json req = Json::object();
    req.set("id", Json::number(1));
    req.set("op", Json::str("submit"));
    req.set("spec", Json::str(formatRunSpec(smallSpec())));
    Json seeds = Json::array();
    seeds.push(Json::numberLexeme("-1"));
    req.set("seeds", std::move(seeds));
    expectBad(req);

    Json okSeeds = Json::array();
    okSeeds.push(Json::number(std::uint64_t{7}));
    req.set("seeds", std::move(okSeeds));
    req.set("deadline_ms", Json::numberLexeme("-50"));
    expectBad(req);
    ::close(fd);
    server.stop();
    EXPECT_EQ(server.metrics().rowsComputed.value(), 0u);
}

TEST(Server, ClosedSessionsAreReapedWhileRunning)
{
    std::string path = freshSocketPath("reap");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Churn one-connection clients, as twctl does one per sweep: a
    // resident daemon must reap each (thread joined, fd closed) as
    // it disconnects, not park them all until shutdown and bleed
    // fds toward EMFILE.
    constexpr unsigned kConns = 8;
    for (unsigned i = 0; i < kConns; ++i) {
        Client client;
        ASSERT_TRUE(client.connectUnix(path, &err)) << err;
        ASSERT_TRUE(client.ping(&err)) << err;
    } // ~Client disconnects
    // The reaper runs once per accept-poll tick (<= 100ms).
    for (int spin = 0;
         spin < 200 && server.liveSessionCount() > 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server.liveSessionCount(), 0u);
    EXPECT_EQ(server.metrics().sessionsClosed.value(), kConns);
    server.stop();
}

TEST(Server, OversizedLineCutsTheSession)
{
    std::string path = freshSocketPath("flood");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = serve::connectUnixSocket(path, &err);
    ASSERT_GE(fd, 0) << err;
    // Stream bytes with no newline well past the line cap: the
    // server must cut the session instead of buffering forever.
    std::string chunk(1u << 20, 'x');
    std::size_t target = serve::LineReader::kMaxLineBytes
                         + 2 * chunk.size();
    bool peerClosed = false;
    for (std::size_t sent = 0; sent < target;
         sent += chunk.size()) {
        if (!serve::sendAll(fd, chunk.data(), chunk.size())) {
            peerClosed = true; // server already hung up on us
            break;
        }
    }
    if (!peerClosed) {
        // Server closes without ever replying.
        serve::LineReader reader(fd);
        std::string line;
        EXPECT_NE(reader.readLine(line),
                  serve::LineReader::Status::Line);
    }
    ::close(fd);
    server.stop();
    EXPECT_EQ(server.metrics().badRequests.value(), 0u);
}

TEST(Server, ConcurrentClientsAllServedCorrectly)
{
    Runner::clearBaselineCache();
    std::string path = freshSocketPath("mpmc");
    ServerConfig cfg = baseConfig(path);
    cfg.workers = 4;
    Server server(cfg);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // 4 clients x 3 sweeps over 2 distinct specs with overlapping
    // seeds: concurrent sessions, shared cache entries, real
    // contention on queue + cache + baseline memo.
    constexpr unsigned kClients = 4;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            Client client;
            std::string cerr;
            if (!client.connectUnix(path, &cerr)) {
                failures.fetch_add(1);
                return;
            }
            RunSpec spec = smallSpec(c % 2 ? 2048 : 4096);
            for (int round = 0; round < 3; ++round) {
                SweepResult res = client.submitSweep(
                    spec, {100 + c % 2, 200}, true);
                if (!res.ok || res.rows.size() != 2)
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0u);

    // Every client's result must equal the direct computation.
    Client checker;
    ASSERT_TRUE(checker.connectUnix(path, &err)) << err;
    RunSpec spec = smallSpec(2048);
    SweepResult res = checker.submitSweep(spec, {101, 200}, true);
    ASSERT_TRUE(res.ok);
    std::vector<RunOutcome> served = res.outcomes();
    EXPECT_EQ(formatRunOutcome(served[0]),
              formatRunOutcome(Runner::runWithSlowdown(spec, 101)));
    EXPECT_EQ(formatRunOutcome(served[1]),
              formatRunOutcome(Runner::runWithSlowdown(spec, 200)));
    server.stop();
}

TEST(Server, FlushCacheForcesRecompute)
{
    std::string path = freshSocketPath("flush");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    RunSpec spec = smallSpec();
    SweepResult a = client.submitSweep(spec, {3}, true);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(client.flushCache(&err)) << err;
    SweepResult b = client.submitSweep(spec, {3}, true);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(b.computed, 1u);
    EXPECT_EQ(b.cached, 0u);
    // Flush costs time, never accuracy.
    EXPECT_EQ(formatRunOutcome(a.outcomes()[0]),
              formatRunOutcome(b.outcomes()[0]));
    server.stop();
}

TEST(Server, StatsSurfaceIsComplete)
{
    std::string path = freshSocketPath("stats");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    client.submitSweep(smallSpec(), {1}, true);
    Json stats;
    ASSERT_TRUE(client.stats(stats, &err)) << err;
    for (const char *p :
         {"uptime_s", "workers", "queue.depth", "queue.capacity",
          "queue.in_flight", "cache.hits", "cache.misses",
          "cache.size", "baseline.size", "baseline.capacity",
          "ops.submits", "rows.streamed", "rows.computed",
          "rejected.overloaded", "sessions.opened",
          "latency.queue_wait.count", "latency.run.p50_us",
          "latency.request.p99_us"}) {
        EXPECT_NE(stats.findPath(p), nullptr) << "missing " << p;
    }
    EXPECT_EQ(stats.findPath("queue.capacity")->asU64(), 16u);
    EXPECT_EQ(stats.findPath("workers")->asU64(), 2u);
    EXPECT_GE(stats.findPath("latency.request.count")->asU64(), 1u);
    server.stop();
}

TEST(Server, RunExperimentRowsBitIdenticalToLocalEngine)
{
    Runner::clearBaselineCache();
    std::string path = freshSocketPath("exp");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    const ExperimentDef *def =
        ExperimentRegistry::instance().find("smoke");
    ASSERT_NE(def, nullptr); // registered by tw_harness itself

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    serve::ExperimentResult res = client.runExperiment("smoke", 4000);
    ASSERT_TRUE(res.ok) << res.errorMsg;
    EXPECT_EQ(res.cached, 0u);

    // The server ran exactly the registry's job list; re-rendering
    // its rows through experimentRowJson must reproduce the local
    // engine's canonical row stream byte for byte.
    std::vector<ExperimentJob> jobs = experimentJobs(*def, {.scaleDiv = 4000});
    ASSERT_EQ(res.rows.size(), jobs.size());
    EXPECT_EQ(res.computed, jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const serve::ServedExperimentRow &row = res.rows[i];
        const ExperimentJob &job = jobs[i];
        EXPECT_EQ(row.seq, job.seq);
        EXPECT_EQ(row.unit, job.unit);
        RunOutcome local =
            job.withSlowdown
                ? Runner::runWithSlowdown(job.spec, job.seed)
                : Runner::runOne(job.spec, job.seed);
        EXPECT_EQ(experimentRowJson("smoke", row.unit, row.seq,
                                    row.trial, row.seed, row.outcome)
                      .dump(),
                  experimentRowJson("smoke", job.unit, job.seq,
                                    job.trial, job.seed, local)
                      .dump())
            << "row " << i;
    }

    // Rerun: every job is a cache hit, rows still identical.
    serve::ExperimentResult again =
        client.runExperiment("smoke", 4000);
    ASSERT_TRUE(again.ok) << again.errorMsg;
    EXPECT_EQ(again.cached, jobs.size());
    EXPECT_EQ(again.computed, 0u);
    ASSERT_EQ(again.rows.size(), res.rows.size());
    for (std::size_t i = 0; i < res.rows.size(); ++i) {
        EXPECT_TRUE(again.rows[i].cached);
        EXPECT_EQ(formatRunOutcome(again.rows[i].outcome),
                  formatRunOutcome(res.rows[i].outcome));
    }
    server.stop();
}

TEST(Server, RunExperimentSharesCacheWithAdHocSubmits)
{
    std::string path = freshSocketPath("expshare");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    const ExperimentDef *def =
        ExperimentRegistry::instance().find("smoke");
    ASSERT_NE(def, nullptr);
    std::vector<ExperimentJob> jobs = experimentJobs(*def, {.scaleDiv = 4000});

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    // Warm the cache by hand-submitting the experiment's own jobs —
    // same canonical spec text, same seeds, same slowdown flag.
    for (const ExperimentJob &job : jobs) {
        SweepResult r = client.submitSweep(job.spec, {job.seed},
                                           job.withSlowdown);
        ASSERT_TRUE(r.ok) << r.errorMsg;
    }

    serve::ExperimentResult res = client.runExperiment("smoke", 4000);
    ASSERT_TRUE(res.ok) << res.errorMsg;
    EXPECT_EQ(res.cached, jobs.size()); // keys matched exactly
    EXPECT_EQ(res.computed, 0u);
    server.stop();
}

TEST(Server, RunExperimentUnknownNameIsBadRequest)
{
    std::string path = freshSocketPath("expbad");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    serve::ExperimentResult res = client.runExperiment("nosuch");
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.errorCode, "bad_request");

    // The connection survives a rejected request.
    EXPECT_TRUE(client.ping(&err)) << err;
    server.stop();
}

TEST(Server, StatsCountPerExperimentCacheLookups)
{
    std::string path = freshSocketPath("expstats");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    const ExperimentDef *def =
        ExperimentRegistry::instance().find("smoke");
    ASSERT_NE(def, nullptr);
    std::size_t jobCount = experimentJobs(*def, {.scaleDiv = 4000}).size();

    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    ASSERT_TRUE(client.runExperiment("smoke", 4000).ok);
    ASSERT_TRUE(client.runExperiment("smoke", 4000).ok);
    client.submitSweep(smallSpec(), {1}, true);

    Json stats;
    ASSERT_TRUE(client.stats(stats, &err)) << err;
    EXPECT_EQ(stats.findPath("ops.run_experiments")->asU64(), 2u);
    const Json *smoke = stats.findPath("experiments.smoke");
    ASSERT_NE(smoke, nullptr);
    EXPECT_EQ(smoke->findPath("misses")->asU64(), jobCount);
    EXPECT_EQ(smoke->findPath("hits")->asU64(), jobCount);
    const Json *adhoc = stats.findPath("experiments._adhoc");
    ASSERT_NE(adhoc, nullptr);
    EXPECT_EQ(adhoc->findPath("misses")->asU64(), 1u);
    server.stop();
}

// ---- The distributed-admission wire ops (reserve / release /
// run_jobs) the router drives. Raw NDJSON here: these tests pin the
// worker-side protocol a router of any version must be able to
// speak.

namespace
{

/** Send one request, read events until a terminal one; returns all
 *  parsed events. */
std::vector<Json>
roundTrip(int fd, serve::LineReader &reader, const Json &req)
{
    EXPECT_TRUE(serve::sendJsonLine(fd, req));
    std::vector<Json> events;
    std::string line;
    while (reader.readLine(line) == serve::LineReader::Status::Line) {
        Json e;
        EXPECT_TRUE(Json::parse(line, e, nullptr)) << line;
        std::string ev = e.find("ev")->asString();
        events.push_back(std::move(e));
        if (ev != "row")
            break; // reserved/ok/done/error are all terminal
    }
    return events;
}

Json
makeJob(const RunSpec &spec, std::uint64_t seed, std::uint64_t trial)
{
    Json j = Json::object();
    j.set("spec", Json::str(formatRunSpec(spec)));
    j.set("seed", Json::number(seed));
    j.set("slowdown", Json::boolean(true));
    j.set("trial", Json::number(trial));
    j.set("seq", Json::number(trial));
    return j;
}

} // namespace

TEST(Server, ReserveReleaseRoundTripAndIdempotence)
{
    std::string path = freshSocketPath("resv");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = serve::connectUnixSocket(path, &err);
    ASSERT_GE(fd, 0) << err;
    serve::LineReader reader(fd);

    Json req = Json::object();
    req.set("id", Json::number(std::uint64_t{1}));
    req.set("op", Json::str("reserve"));
    req.set("jobs", Json::number(std::uint64_t{4}));
    auto evs = roundTrip(fd, reader, req);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].find("ev")->asString(), "reserved");
    EXPECT_EQ(evs[0].find("jobs")->asU64(), 4u);
    std::uint64_t token = evs[0].find("reservation")->asU64();
    EXPECT_GT(token, 0u);

    Json rel = Json::object();
    rel.set("id", Json::number(std::uint64_t{2}));
    rel.set("op", Json::str("release"));
    rel.set("reservation", Json::number(token));
    evs = roundTrip(fd, reader, rel);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].find("ev")->asString(), "ok");
    EXPECT_EQ(evs[0].find("released")->asU64(), 4u);

    // Releasing a settled token is not an error — it releases 0.
    rel.set("id", Json::number(std::uint64_t{3}));
    evs = roundTrip(fd, reader, rel);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].find("ev")->asString(), "ok");
    EXPECT_EQ(evs[0].find("released")->asU64(), 0u);

    ::close(fd);
    server.stop();
}

TEST(Server, ReservationHoldsCapacityAgainstOtherAdmission)
{
    std::string path = freshSocketPath("resvcap");
    ServerConfig cfg = baseConfig(path); // queueCapacity = 16
    Server server(cfg);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = serve::connectUnixSocket(path, &err);
    ASSERT_GE(fd, 0) << err;
    serve::LineReader reader(fd);
    Json req = Json::object();
    req.set("id", Json::number(std::uint64_t{1}));
    req.set("op", Json::str("reserve"));
    req.set("jobs",
            Json::number(std::uint64_t{cfg.queueCapacity}));
    auto evs = roundTrip(fd, reader, req);
    ASSERT_EQ(evs[0].find("ev")->asString(), "reserved");
    std::uint64_t token = evs[0].find("reservation")->asU64();

    // The whole queue is claimed: an ordinary submit is refused.
    Client other;
    ASSERT_TRUE(other.connectUnix(path, &err)) << err;
    SweepResult res = other.submitSweep(smallSpec(), {1}, true);
    ASSERT_FALSE(res.ok);
    EXPECT_EQ(res.errorCode, serve::kErrOverloaded);

    // A second overlapping reservation is refused the same way.
    Json again = Json::object();
    again.set("id", Json::number(std::uint64_t{2}));
    again.set("op", Json::str("reserve"));
    again.set("jobs", Json::number(std::uint64_t{1}));
    evs = roundTrip(fd, reader, again);
    EXPECT_EQ(evs[0].find("ev")->asString(), "error");
    EXPECT_EQ(evs[0].find("code")->asString(),
              serve::kErrOverloaded);

    // Release and the lane reopens.
    Json rel = Json::object();
    rel.set("id", Json::number(std::uint64_t{3}));
    rel.set("op", Json::str("release"));
    rel.set("reservation", Json::number(token));
    roundTrip(fd, reader, rel);
    res = other.submitSweep(smallSpec(), {1}, true);
    EXPECT_TRUE(res.ok) << res.errorCode;

    ::close(fd);
    server.stop();
}

TEST(Server, RunJobsWithReservationStreamsRowsAndWarmsCache)
{
    std::string path = freshSocketPath("runjobs");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    RunSpec spec = smallSpec();
    int fd = serve::connectUnixSocket(path, &err);
    ASSERT_GE(fd, 0) << err;
    serve::LineReader reader(fd);

    Json resv = Json::object();
    resv.set("id", Json::number(std::uint64_t{1}));
    resv.set("op", Json::str("reserve"));
    resv.set("jobs", Json::number(std::uint64_t{2}));
    auto evs = roundTrip(fd, reader, resv);
    std::uint64_t token = evs[0].find("reservation")->asU64();

    Json run = Json::object();
    run.set("id", Json::number(std::uint64_t{2}));
    run.set("op", Json::str("run_jobs"));
    run.set("reservation", Json::number(token));
    Json jobs = Json::array();
    jobs.push(makeJob(spec, 41, 0));
    jobs.push(makeJob(spec, 42, 1));
    run.set("jobs", jobs);
    evs = roundTrip(fd, reader, run);
    ASSERT_EQ(evs.size(), 3u); // 2 rows + done
    EXPECT_EQ(evs[0].find("ev")->asString(), "row");
    EXPECT_EQ(evs[1].find("ev")->asString(), "row");
    EXPECT_EQ(evs[2].find("ev")->asString(), "done");
    EXPECT_EQ(evs[2].find("computed")->asU64(), 2u);

    // The computed rows went through the SAME cache a plain submit
    // reads — the shard-local cache-locality contract.
    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    SweepResult res = client.submitSweep(spec, {41, 42}, true);
    ASSERT_TRUE(res.ok) << res.errorMsg;
    EXPECT_EQ(res.cached, 2u);
    EXPECT_EQ(res.computed, 0u);

    ::close(fd);
    server.stop();
}

TEST(Server, RunJobsBatchDefaultSpecSharedAcrossJobs)
{
    std::string path = freshSocketPath("runjobsdef");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    RunSpec spec = smallSpec();
    int fd = serve::connectUnixSocket(path, &err);
    ASSERT_GE(fd, 0) << err;
    serve::LineReader reader(fd);

    // Jobs omit their per-job spec; the batch-level default covers
    // them. This is the wire shape the router emits for fan-out.
    Json run = Json::object();
    run.set("id", Json::number(std::uint64_t{1}));
    run.set("op", Json::str("run_jobs"));
    run.set("spec", Json::str(formatRunSpec(spec)));
    Json jobs = Json::array();
    for (std::uint64_t t = 0; t < 2; ++t) {
        Json j = Json::object();
        j.set("seed", Json::number(std::uint64_t{51 + t}));
        j.set("slowdown", Json::boolean(true));
        j.set("trial", Json::number(t));
        j.set("seq", Json::number(t));
        jobs.push(std::move(j));
    }
    run.set("jobs", jobs);
    auto evs = roundTrip(fd, reader, run);
    ASSERT_EQ(evs.size(), 3u) << "2 rows + done";
    EXPECT_EQ(evs[2].find("ev")->asString(), "done");
    EXPECT_EQ(evs[2].find("computed")->asU64(), 2u);

    // Cache keys must match what a plain submit of the same sweep
    // computes — the default-spec path can't change identity.
    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    SweepResult res = client.submitSweep(spec, {51, 52}, true);
    ASSERT_TRUE(res.ok) << res.errorMsg;
    EXPECT_EQ(res.cached, 2u);

    // No per-job spec AND no default: typed bad_request.
    Json bad = Json::object();
    bad.set("id", Json::number(std::uint64_t{2}));
    bad.set("op", Json::str("run_jobs"));
    Json bj = Json::array();
    Json j = Json::object();
    j.set("seed", Json::number(std::uint64_t{53}));
    bj.push(std::move(j));
    bad.set("jobs", bj);
    evs = roundTrip(fd, reader, bad);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].find("ev")->asString(), "error");
    EXPECT_EQ(evs[0].find("code")->asString(),
              serve::kErrBadRequest);

    ::close(fd);
    server.stop();
}

TEST(Server, RunJobsRejectsUnknownOrOverCommittedReservation)
{
    std::string path = freshSocketPath("runbad");
    Server server(baseConfig(path));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    RunSpec spec = smallSpec();
    int fd = serve::connectUnixSocket(path, &err);
    ASSERT_GE(fd, 0) << err;
    serve::LineReader reader(fd);

    // Unknown token: typed bad_request, nothing runs.
    Json run = Json::object();
    run.set("id", Json::number(std::uint64_t{1}));
    run.set("op", Json::str("run_jobs"));
    run.set("reservation", Json::number(std::uint64_t{999999}));
    Json jobs = Json::array();
    jobs.push(makeJob(spec, 51, 0));
    run.set("jobs", jobs);
    auto evs = roundTrip(fd, reader, run);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].find("ev")->asString(), "error");
    EXPECT_EQ(evs[0].find("code")->asString(),
              serve::kErrBadRequest);

    // Committing MORE jobs than were reserved is refused and the
    // reservation is settled (a broken router must not leak slots).
    Json resv = Json::object();
    resv.set("id", Json::number(std::uint64_t{2}));
    resv.set("op", Json::str("reserve"));
    resv.set("jobs", Json::number(std::uint64_t{1}));
    evs = roundTrip(fd, reader, resv);
    std::uint64_t token = evs[0].find("reservation")->asU64();
    Json over = Json::object();
    over.set("id", Json::number(std::uint64_t{3}));
    over.set("op", Json::str("run_jobs"));
    over.set("reservation", Json::number(token));
    Json two = Json::array();
    two.push(makeJob(spec, 52, 0));
    two.push(makeJob(spec, 53, 1));
    over.set("jobs", two);
    evs = roundTrip(fd, reader, over);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].find("ev")->asString(), "error");

    // All slots are back: the full queue is reservable again.
    Json all = Json::object();
    all.set("id", Json::number(std::uint64_t{4}));
    all.set("op", Json::str("reserve"));
    all.set("jobs", Json::number(
                        std::uint64_t{server.config().queueCapacity}));
    evs = roundTrip(fd, reader, all);
    EXPECT_EQ(evs[0].find("ev")->asString(), "reserved");

    ::close(fd);
    server.stop();
}

TEST(Server, DisconnectReleasesSessionReservations)
{
    std::string path = freshSocketPath("resvdrop");
    ServerConfig cfg = baseConfig(path);
    Server server(cfg);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Claim the whole queue, then vanish without releasing.
    int fd = serve::connectUnixSocket(path, &err);
    ASSERT_GE(fd, 0) << err;
    {
        serve::LineReader reader(fd);
        Json req = Json::object();
        req.set("id", Json::number(std::uint64_t{1}));
        req.set("op", Json::str("reserve"));
        req.set("jobs",
                Json::number(std::uint64_t{cfg.queueCapacity}));
        auto evs = roundTrip(fd, reader, req);
        ASSERT_EQ(evs[0].find("ev")->asString(), "reserved");
    }
    ::close(fd);

    // The session reaper returns the slots; a healthy client can
    // reserve the full queue again shortly after.
    Client client;
    ASSERT_TRUE(client.connectUnix(path, &err)) << err;
    bool reopened = false;
    for (int spins = 0; spins < 200 && !reopened; ++spins) {
        SweepResult res = client.submitSweep(smallSpec(), {9}, true);
        reopened = res.ok;
        if (!reopened)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(reopened)
        << "disconnected session's reservation never released";
    server.stop();
}

TEST(Server, TcpListenerServesToo)
{
    std::string path = freshSocketPath("tcp");
    ServerConfig cfg = baseConfig(path);
    // An ephemeral-ish port; retry a few in case of collision.
    Server *started = nullptr;
    Server *attempt = nullptr;
    std::string err;
    for (int port = 39771; port < 39781 && !started; ++port) {
        cfg.tcpPort = port;
        attempt = new Server(cfg);
        if (attempt->start(&err))
            started = attempt;
        else
            delete attempt;
    }
    ASSERT_NE(started, nullptr) << err;

    Client client;
    ASSERT_TRUE(client.connectTcp("127.0.0.1",
                                  started->config().tcpPort, &err))
        << err;
    ASSERT_TRUE(client.ping(&err)) << err;
    SweepResult res = client.submitSweep(smallSpec(), {77}, true);
    EXPECT_TRUE(res.ok) << res.errorMsg;
    started->stop();
    delete started;
}

} // namespace
} // namespace tw
