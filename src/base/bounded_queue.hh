/**
 * @file
 * A bounded multi-producer/multi-consumer FIFO with explicit
 * backpressure.
 *
 * The experiment service admits work through this queue: session
 * threads produce jobs, the worker pool consumes them, and when the
 * queue is full a submission is REJECTED (the tryPush family returns
 * false) instead of
 * growing the queue or blocking the session — the "overloaded"
 * admission-control policy of DESIGN.md §9. A whole sweep is admitted
 * atomically via tryPushAll() so a client never observes half of its
 * trials accepted and the rest refused.
 *
 * close() stops admission but lets consumers drain what was already
 * accepted — the graceful-SIGTERM path: every admitted job still
 * produces its result row before the daemon exits.
 *
 * pause() holds every item in the queue until resume(): pop() hands
 * nothing out meanwhile, not even to a consumer that was already
 * blocked in it, and a paused queue that still holds items does not
 * end a drain even once closed. The service's tests use it to fill
 * the queue deterministically and to freeze admitted jobs across a
 * stop.
 *
 * Distribution adds RESERVATIONS (two-phase admission): a router
 * fanning one sweep across several shards must know every shard has
 * room before committing any of them. tryReserve(n) claims n slots
 * of free space without enqueuing anything; pushReserved() later
 * consumes the claim (returning any excess — cache hits discovered
 * at commit need fewer slots than were reserved), and
 * releaseReserved() abandons it. Reserved space counts against
 * capacity for every admission path, so an ordinary tryPushAll
 * cannot steal slots out from under a committed-to reservation.
 * close() voids all reservations: a reservation is a claim on
 * FUTURE admission, and PR 4's drain contract only protects work
 * already admitted — the router sees its commit fail shutting_down
 * and reports a clean typed error upstream.
 *
 * Plain mutex + two condition variables. Jobs are whole simulator
 * runs (milliseconds to seconds each), so queue overhead is
 * irrelevant and the simplicity keeps the semantics auditable; the
 * contention-heavy paths are exercised under TSan by
 * tests/base/test_bounded_queue.cc.
 */

#ifndef TW_BASE_BOUNDED_QUEUE_HH
#define TW_BASE_BOUNDED_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace tw
{

template <typename T>
class BoundedQueue
{
  public:
    /** A queue holding at most @p capacity items (at least 1). */
    explicit BoundedQueue(std::size_t capacity)
        : capacity_(capacity ? capacity : 1)
    {
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    std::size_t capacity() const { return capacity_; }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /**
     * Admit one item if there is room; false when full or closed.
     * Never blocks — this is the backpressure edge.
     */
    bool
    tryPush(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || items_.size() + reserved_ >= capacity_)
                return false;
            items_.push_back(std::move(item));
        }
        itemReady_.notify_one();
        return true;
    }

    /** Free slots a reservation could claim right now. */
    std::size_t
    freeSlots() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t used = items_.size() + reserved_;
        return used >= capacity_ ? 0 : capacity_ - used;
    }

    /** Reserved-but-uncommitted slots (tests, stats). */
    std::size_t
    reserved() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return reserved_;
    }

    /**
     * Claim @p n slots of free space atomically, without enqueuing.
     * False when they don't all fit (counting existing reservations)
     * or the queue is closed. n of 0 succeeds trivially.
     */
    bool
    tryReserve(std::size_t n)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t used = items_.size() + reserved_;
        if (closed_ || used > capacity_ || capacity_ - used < n)
            return false;
        reserved_ += n;
        return true;
    }

    /**
     * Return @p n reserved slots unused. Clamped — releasing after
     * close() (which voids all reservations) is a harmless no-op.
     */
    void
    releaseReserved(std::size_t n)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            reserved_ -= std::min(n, reserved_);
        }
        spaceReady_.notify_all();
    }

    /**
     * Consume a reservation of @p reserved slots with @p items
     * (items.size() <= reserved; the difference — trials that
     * turned out to be cache hits at commit — is released). False
     * without queue change when the queue is closed (the
     * reservation was already voided) or when the items exceed the
     * surviving reservation.
     */
    bool
    pushReserved(std::vector<T> items, std::size_t reserved)
    {
        std::size_t n = items.size();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || n > reserved || reserved_ < n)
                return false;
            reserved_ -= std::min(reserved, reserved_);
            for (T &item : items)
                items_.push_back(std::move(item));
        }
        if (n == 1)
            itemReady_.notify_one();
        else if (n > 1)
            itemReady_.notify_all();
        spaceReady_.notify_all();
        return true;
    }

    /**
     * Admit @p items atomically: all of them or none. False (and no
     * queue change) when they don't all fit or the queue is closed.
     * The batch must itself fit in the capacity.
     */
    bool
    tryPushAll(std::vector<T> items)
    {
        if (items.empty())
            return true;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            std::size_t used = items_.size() + reserved_;
            if (closed_ || used > capacity_
                || capacity_ - used < items.size())
                return false;
            for (T &item : items)
                items_.push_back(std::move(item));
        }
        if (items.size() == 1)
            itemReady_.notify_one();
        else
            itemReady_.notify_all();
        return true;
    }

    /**
     * Blocking push for producers that want backpressure-by-waiting
     * rather than rejection (tests, in-process tools). False when
     * the queue is closed before space appears.
     */
    bool
    push(T item)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            spaceReady_.wait(lock, [&] {
                return closed_
                       || items_.size() + reserved_ < capacity_;
            });
            if (closed_)
                return false;
            items_.push_back(std::move(item));
        }
        itemReady_.notify_one();
        return true;
    }

    /**
     * Take the oldest item, blocking while the queue is paused or
     * empty. nullopt once the queue is closed AND drained — the
     * consumer's termination signal.
     */
    std::optional<T>
    pop()
    {
        std::optional<T> out;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            itemReady_.wait(lock, [&] {
                return items_.empty() ? closed_ : !paused_;
            });
            if (items_.empty())
                return std::nullopt;
            out.emplace(std::move(items_.front()));
            items_.pop_front();
        }
        spaceReady_.notify_one();
        return out;
    }

    /** Hold every item until resume(): pop() takes none meanwhile
     *  (see file comment). */
    void
    pause()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = true;
    }

    /** Let pop() take items again. */
    void
    resume()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            paused_ = false;
        }
        itemReady_.notify_all();
    }

    /**
     * Stop admission and wake every waiter. Items already admitted
     * remain poppable (drain); push/tryPush fail from now on.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
            // Reservations are claims on future admission; a
            // closing queue voids them (see file comment).
            reserved_ = 0;
        }
        itemReady_.notify_all();
        spaceReady_.notify_all();
    }

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable itemReady_;
    std::condition_variable spaceReady_;
    std::deque<T> items_;
    std::size_t reserved_ = 0;
    bool closed_ = false;
    bool paused_ = false;
};

} // namespace tw

#endif // TW_BASE_BOUNDED_QUEUE_HH
