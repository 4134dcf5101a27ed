/** @file Unit tests for parallelFor and the default worker count. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "base/thread_pool.hh"

namespace tw
{
namespace
{

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

TEST(ParallelFor, CallerIsOneOfTheWorkers)
{
    // A width-w call runs on the calling thread plus w-1 started
    // ones: the body sees at most min(w, n) thread ids, and writes
    // what a serial run writes.
    auto fill = [](std::vector<std::uint64_t> &out) {
        return [&out](std::uint64_t i) { out[i] = i * 7 + 3; };
    };
    for (unsigned width : {1u, 2u, 4u}) {
        for (std::uint64_t n : {1u, 3u, 100u}) {
            std::vector<std::thread::id> ids(n);
            std::vector<std::uint64_t> serial(n), out(n);
            parallelFor(n, fill(serial), 1);
            parallelFor(
                n,
                [&](std::uint64_t i) {
                    ids[i] = std::this_thread::get_id();
                    fill(out)(i);
                },
                width);
            std::set<std::thread::id> distinct(ids.begin(), ids.end());
            EXPECT_LE(distinct.size(), std::min<std::uint64_t>(width, n))
                << "width " << width << " n " << n;
            EXPECT_EQ(out, serial) << "width " << width << " n " << n;
        }

        // With n == w and every body waiting until all w have
        // started, each worker holds one index, so the caller holds
        // one too.
        std::atomic<unsigned> started{0};
        std::vector<std::thread::id> ids(width);
        parallelFor(
            width,
            [&](std::uint64_t i) {
                ids[i] = std::this_thread::get_id();
                started.fetch_add(1);
                auto giveUp = std::chrono::steady_clock::now()
                              + std::chrono::seconds(10);
                while (started.load() < width
                       && std::chrono::steady_clock::now() < giveUp)
                    std::this_thread::yield();
            },
            width);
        EXPECT_EQ(started.load(), width);
        EXPECT_NE(std::find(ids.begin(), ids.end(),
                            std::this_thread::get_id()),
                  ids.end())
            << "width " << width;
    }
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

} // anonymous namespace
} // namespace tw
