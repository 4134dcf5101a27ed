#include "base/thread_pool.hh"

#include <atomic>
#include <vector>

#include "base/numa.hh"

namespace tw
{

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::run(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        ++pending_;
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return pending_ == 0; });
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workReady_.wait(lock, [this] {
            return stopping_ || !queue_.empty();
        });
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        task();
        lock.lock();
        if (--pending_ == 0)
            allDone_.notify_all();
    }
}

unsigned
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

namespace
{

std::atomic<unsigned> default_threads_override{0};

} // anonymous namespace

unsigned
defaultThreads()
{
    unsigned n = default_threads_override.load(std::memory_order_relaxed);
    return n != 0 ? n : hardwareThreads();
}

void
setDefaultThreads(unsigned n)
{
    default_threads_override.store(n, std::memory_order_relaxed);
}

namespace
{

/** Per-node work counter, padded so shards never share a line. */
struct alignas(64) NodeShard
{
    std::atomic<std::uint64_t> next{0};
    std::uint64_t end = 0;
};

} // anonymous namespace

void
parallelFor(std::uint64_t n,
            const std::function<void(std::uint64_t)> &body,
            unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    if (threads > n)
        threads = static_cast<unsigned>(n);
    if (threads <= 1) {
        for (std::uint64_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    const numa::Topology &topo = numa::topology();
    const bool pin = numa::pinningEnabled();
    unsigned nodes = topo.nodes();
    if (nodes > threads)
        nodes = threads;

    if (nodes <= 1 && !pin) {
        // Single-node, unpinned: the classic one-counter dispatch.
        std::atomic<std::uint64_t> next{0};
        auto drain = [&next, n, &body] {
            for (std::uint64_t i;
                 (i = next.fetch_add(1, std::memory_order_relaxed))
                 < n;)
                body(i);
        };

        // The calling thread is one of the workers, so a width-t
        // parallelFor spawns only t-1 threads.
        ThreadPool pool(threads - 1);
        for (unsigned w = 1; w < threads; ++w)
            pool.run(drain);
        drain();
        pool.wait();
        return;
    }

    // NUMA-sharded dispatch: indices are split into one contiguous
    // shard per node, workers are spread across nodes (and pinned to
    // theirs when pinning is on), and each worker drains its own
    // node's shard before stealing from the others. Bodies still
    // only write their own index, so results stay bit-identical to
    // the serial order; sharding only changes which worker — and
    // which node's memory — serves an index in the common case.
    std::vector<NodeShard> shards(nodes);
    for (unsigned s = 0; s < nodes; ++s) {
        shards[s].next.store(n * s / nodes,
                             std::memory_order_relaxed);
        shards[s].end = n * (s + 1) / nodes;
    }

    auto drain = [&shards, nodes, threads, pin, &body](unsigned w) {
        unsigned home = w * nodes / threads;
        if (pin)
            numa::pinThreadToNode(home);
        for (unsigned k = 0; k < nodes; ++k) {
            NodeShard &shard = shards[(home + k) % nodes];
            for (std::uint64_t i;
                 (i = shard.next.fetch_add(
                      1, std::memory_order_relaxed))
                 < shard.end;)
                body(i);
        }
    };

    // The caller participates as worker 0; the guard restores its
    // affinity once the sweep completes.
    numa::AffinityGuard guard;
    ThreadPool pool(threads - 1);
    for (unsigned w = 1; w < threads; ++w)
        pool.run([&drain, w] { drain(w); });
    drain(0);
    pool.wait();
}

} // namespace tw
