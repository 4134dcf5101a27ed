/**
 * @file
 * The bounded MPMC queue behind the experiment service's admission
 * control: capacity enforcement, all-or-nothing sweep admission,
 * close-and-drain, and an MPMC stress run (meaningful under TSan —
 * check.sh builds this suite with -fsanitize=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "base/bounded_queue.hh"

using namespace tw;

namespace
{

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(4);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_TRUE(q.tryPush(3));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, TryPushRejectsWhenFull)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3));
    EXPECT_EQ(q.size(), 2u);
    q.pop();
    EXPECT_TRUE(q.tryPush(3));
}

TEST(BoundedQueue, TryPushAllIsAtomic)
{
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.tryPush(0));

    // Three fit beside the existing one...
    EXPECT_TRUE(q.tryPushAll({1, 2, 3}));
    EXPECT_EQ(q.size(), 4u);

    q.pop();
    q.pop();
    // ...but three do not fit beside two, and NONE may land.
    EXPECT_FALSE(q.tryPushAll({7, 8, 9}));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueue, CloseStopsAdmissionButDrains)
{
    BoundedQueue<int> q(4);
    q.tryPushAll({1, 2});
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.tryPush(3));
    EXPECT_FALSE(q.tryPushAll({3}));
    // Admitted items remain poppable...
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    // ...and a pop on closed-empty reports end-of-stream.
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseWakesBlockedConsumers)
{
    BoundedQueue<int> q(1);
    std::thread consumer([&] {
        EXPECT_FALSE(q.pop().has_value()); // blocks until close
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    consumer.join();
}

TEST(BoundedQueue, PauseHoldsItemsUntilResume)
{
    // A consumer already blocked in pop() on a paused queue gets
    // nothing when an item arrives, and gets it after resume().
    BoundedQueue<int> q(4);
    q.pause();
    std::atomic<bool> took{false};
    std::thread consumer([&] {
        EXPECT_EQ(q.pop(), 7);
        took.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q.tryPush(7));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(took.load());
    EXPECT_EQ(q.size(), 1u);
    q.resume();
    consumer.join();
    EXPECT_TRUE(took.load());

    // Closing a paused queue that still holds items does not end
    // the drain: the consumer waits for resume(), then takes both
    // items and sees end-of-stream.
    ASSERT_TRUE(q.tryPushAll({1, 2}));
    q.pause();
    std::atomic<int> taken{0};
    std::atomic<bool> ended{false};
    std::thread drainer([&] {
        while (q.pop())
            taken.fetch_add(1);
        ended.store(true);
    });
    q.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(taken.load(), 0);
    EXPECT_FALSE(ended.load());
    q.resume();
    drainer.join();
    EXPECT_EQ(taken.load(), 2);
    EXPECT_TRUE(ended.load());
}

TEST(BoundedQueue, BlockingPushWaitsForSpace)
{
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2)); // blocks: queue is full
        pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueue, MpmcStressConservesItems)
{
    // 4 producers x 4 consumers through a tiny queue: every pushed
    // value is popped exactly once, no hangs, no races (TSan).
    constexpr unsigned kProducers = 4, kConsumers = 4;
    constexpr int kPerProducer = 2000;
    BoundedQueue<int> q(8);

    std::vector<std::thread> threads;
    std::atomic<std::uint64_t> popSum{0};
    std::atomic<std::uint64_t> popCount{0};
    for (unsigned c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            while (auto v = q.pop()) {
                popSum.fetch_add(static_cast<std::uint64_t>(*v));
                popCount.fetch_add(1);
            }
        });
    }
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int v = static_cast<int>(p) * kPerProducer + i;
                // Mix blocking and non-blocking admission.
                if (i % 3 == 0) {
                    while (!q.tryPush(v))
                        std::this_thread::yield();
                } else {
                    ASSERT_TRUE(q.push(v));
                }
            }
        });
    }
    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : threads)
        t.join();

    std::uint64_t n = kProducers * kPerProducer;
    std::uint64_t expect = n * (n - 1) / 2; // sum 0..n-1
    EXPECT_EQ(popCount.load(), n);
    EXPECT_EQ(popSum.load(), expect);
}

TEST(BoundedQueue, MoveOnlyPayload)
{
    BoundedQueue<std::unique_ptr<int>> q(2);
    EXPECT_TRUE(q.push(std::make_unique<int>(7)));
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(**v, 7);
}

// ---- Reservations: the distributed two-phase admission primitive.
// A reservation is a claim on FUTURE capacity (phase 1 of the
// router's all-or-nothing fan-out); pushReserved converts the claim
// into admitted items (phase 2), releaseReserved abandons it.

TEST(BoundedQueueReserve, ReservedSlotsCountAgainstCapacity)
{
    BoundedQueue<int> q(4);
    EXPECT_TRUE(q.tryReserve(3));
    EXPECT_EQ(q.reserved(), 3u);
    EXPECT_EQ(q.freeSlots(), 1u);
    // Ordinary admission sees the reduced capacity...
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_FALSE(q.tryPush(2));
    EXPECT_FALSE(q.tryPushAll({2, 3}));
    // ...and another overlapping reservation is refused.
    EXPECT_FALSE(q.tryReserve(1));
}

TEST(BoundedQueueReserve, PushReservedConsumesTheClaim)
{
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.tryReserve(2));
    std::vector<int> items = {10, 11};
    EXPECT_TRUE(q.pushReserved(items, 2));
    EXPECT_EQ(q.reserved(), 0u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 10);
    EXPECT_EQ(q.pop(), 11);
}

TEST(BoundedQueueReserve, PushReservedFewerItemsThanReserved)
{
    // Committing fewer jobs than reserved (cache hits filled some)
    // must return the unused slots with the same call.
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.tryReserve(3));
    std::vector<int> items = {1};
    EXPECT_TRUE(q.pushReserved(items, 3));
    EXPECT_EQ(q.reserved(), 0u);
    EXPECT_EQ(q.freeSlots(), 3u);
}

TEST(BoundedQueueReserve, ReleaseReturnsCapacityAndClamps)
{
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.tryReserve(4));
    EXPECT_FALSE(q.tryPush(1));
    q.releaseReserved(2);
    EXPECT_EQ(q.reserved(), 2u);
    EXPECT_TRUE(q.tryPush(1));
    // Releasing more than is outstanding clamps instead of
    // underflowing (a stale token racing a close()).
    q.releaseReserved(99);
    EXPECT_EQ(q.reserved(), 0u);
    EXPECT_EQ(q.freeSlots(), 3u);
}

TEST(BoundedQueueReserve, ReleaseWakesBlockedProducer)
{
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.tryReserve(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(7)); // blocks: slot is reserved
        pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    q.releaseReserved(1);
    producer.join();
    EXPECT_TRUE(pushed.load());
}

TEST(BoundedQueueReserve, CloseVoidsReservations)
{
    // Drain protects ADMITTED work only; a claim on future
    // admission dies with the queue. The stale commit then fails
    // like any other post-close push.
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.tryReserve(2));
    q.close();
    EXPECT_EQ(q.reserved(), 0u);
    std::vector<int> items = {1, 2};
    EXPECT_FALSE(q.pushReserved(items, 2));
    EXPECT_FALSE(q.tryReserve(1));
}

TEST(BoundedQueueReserve, CommitWithoutClaimFails)
{
    BoundedQueue<int> q(4);
    std::vector<int> items = {1};
    // No reservation outstanding: pushReserved must refuse rather
    // than silently become tryPushAll.
    EXPECT_FALSE(q.pushReserved(items, 1));
    ASSERT_TRUE(q.tryReserve(1));
    // Claiming more slots than reserved also refuses.
    std::vector<int> two = {1, 2};
    EXPECT_FALSE(q.pushReserved(two, 2));
    EXPECT_EQ(q.reserved(), 1u);
}

TEST(BoundedQueueReserve, ConcurrentReserveNeverOversubscribes)
{
    // 8 threads fight over 16 slots in reserve/commit/pop cycles;
    // every claim granted before the close must commit (capacity was
    // truly held) and the ledger must settle to zero (TSan leg checks
    // the locking, this checks the arithmetic). The close at stop
    // voids a claim still in flight and ends every pop() that finds
    // the queue empty, so no thread stays blocked.
    constexpr std::size_t kCap = 16;
    BoundedQueue<int> q(kCap);
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> committed{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            while (!stop.load()) {
                if (!q.tryReserve(3))
                    continue;
                std::vector<int> items = {1, 2};
                if (!q.pushReserved(items, 3)) {
                    // Only the close voids a granted claim.
                    EXPECT_TRUE(q.closed());
                    break;
                }
                committed.fetch_add(1);
                q.pop();
                q.pop();
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    q.close();
    for (auto &th : threads)
        th.join();
    EXPECT_GT(committed.load(), 0u);
    // All pairs settled: nothing leaked.
    while (q.pop())
        ;
    EXPECT_EQ(q.reserved(), 0u);
    EXPECT_EQ(q.freeSlots(), kCap);
}

} // namespace
