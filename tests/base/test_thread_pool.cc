/** @file Unit tests for the thread pool and parallelFor. */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "base/numa.hh"
#include "base/thread_pool.hh"

namespace tw
{
namespace
{

TEST(ThreadPool, RunsEveryTask)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 100; ++i)
            pool.run([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 100);
    }
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.run([&count] { ++count; });
        // No wait(): the destructor must still run everything queued.
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, WaitIsReusable)
{
    std::atomic<int> count{0};
    ThreadPool pool(3);
    pool.run([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.run([&count] { ++count; });
    pool.run([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
        std::vector<int> hits(1000, 0);
        parallelFor(
            hits.size(),
            [&hits](std::uint64_t i) { ++hits[i]; },
            threads);
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000)
            << "threads=" << threads;
        for (int h : hits)
            EXPECT_EQ(h, 1);
    }
}

TEST(ParallelFor, ZeroIterationsIsANoop)
{
    int calls = 0;
    parallelFor(0, [&calls](std::uint64_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, IndexOwnedWritesAreOrdered)
{
    // The determinism contract: writing slot i from iteration i
    // yields the same vector regardless of width.
    std::vector<std::uint64_t> serial(257), parallel(257);
    parallelFor(serial.size(),
                [&serial](std::uint64_t i) { serial[i] = i * i; }, 1);
    parallelFor(parallel.size(),
                [&parallel](std::uint64_t i) { parallel[i] = i * i; },
                8);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, DefaultWidthRespectsOverride)
{
    const unsigned before = defaultThreads();
    setDefaultThreads(3);
    EXPECT_EQ(defaultThreads(), 3u);
    setDefaultThreads(0); // the hardware count
    EXPECT_EQ(defaultThreads(), hardwareThreads());
    setDefaultThreads(before); // what the test main set
}

/** Inject a fake multi-node topology for one test, restoring the
 *  host map after — lets a single-node CI box run the NUMA-sharded
 *  dispatch path for real. */
class ScopedFakeTopology
{
  public:
    explicit ScopedFakeTopology(numa::Topology topo)
    {
        numa::setTopologyForTest(std::move(topo));
    }

    ~ScopedFakeTopology() { numa::setTopologyForTest({}); }
};

TEST(ParallelForNuma, ShardedDispatchCoversEveryIndexOnce)
{
    // Two fake nodes splitting the host CPUs: parallelFor takes the
    // shard-then-steal path. The exactly-once contract must hold
    // regardless of which shard an index lands in or who steals it.
    numa::Topology topo;
    topo.nodeCpus = {{0}, {0}};
    ScopedFakeTopology fake(std::move(topo));
    ASSERT_EQ(numa::topology().nodes(), 2u);

    for (unsigned threads : {2u, 3u, 4u, 8u}) {
        std::vector<std::atomic<int>> hits(1003);
        for (auto &h : hits)
            h.store(0);
        parallelFor(
            hits.size(),
            [&hits](std::uint64_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            },
            threads);
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " threads " << threads;
    }
}

TEST(ParallelForNuma, ImbalancedShardsDrainViaStealing)
{
    // Skewed node sizes with more workers than one node's share:
    // finished workers must steal the remainder of the other shard
    // rather than idle, and still never double-run an index.
    numa::Topology topo;
    topo.nodeCpus = {{0}, {0}, {0}};
    ScopedFakeTopology fake(std::move(topo));

    std::vector<std::atomic<int>> hits(97);
    for (auto &h : hits)
        h.store(0);
    parallelFor(
        hits.size(),
        [&hits](std::uint64_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        4);
    int total = 0;
    for (auto &h : hits)
        total += h.load();
    EXPECT_EQ(total, 97);
}

TEST(ParallelForNuma, ShardedMatchesSerialBitForBit)
{
    numa::Topology topo;
    topo.nodeCpus = {{0}, {0}};
    ScopedFakeTopology fake(std::move(topo));

    std::vector<std::uint64_t> serial(513), sharded(513);
    parallelFor(serial.size(),
                [&serial](std::uint64_t i) { serial[i] = i * 31 + 7; },
                1);
    parallelFor(
        sharded.size(),
        [&sharded](std::uint64_t i) { sharded[i] = i * 31 + 7; }, 6);
    EXPECT_EQ(serial, sharded);
}

} // anonymous namespace
} // namespace tw
